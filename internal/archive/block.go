package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"

	"repro/internal/telemetry"
)

// Gorilla-style compressed block format. A compressed segment file
// (`segment-XXXXXXXX.blk`, or `rollupN-XXXXXXXX.blk` for downsampled tiers)
// is a sequence of self-framing blocks, each holding up to blockMaxRecords
// Information tuples in columnar form:
//
//	u32  magic "ABLK"
//	u32  frame length in bytes (header through CRC)
//	u8   version (1)
//	u8   tier (0 raw, 1 = 10s rollup, 2 = 1m rollup)
//	u16  metric dictionary entries
//	u32  record count
//	[..] dictionary: { u16 len, bytes } per unique MetricID, first-use order
//	u32  meta stream length    — run-length (dict idx, kind|source, run)
//	[..] meta stream
//	u32  timestamp stream len  — varint delta-of-delta
//	[..] timestamp stream
//	u32  value stream length   — Gorilla XOR bitstream
//	[..] value stream
//	u32  crc32 (IEEE) of everything above
//
// Timestamps are delta-of-delta coded (zigzag varints: a fixed-interval
// series costs one byte per record), values are XOR-compressed against the
// previous value (an unchanged reading costs one bit), and the Info string
// column (Metric) plus the two enum columns (Kind, Source) collapse into a
// per-block dictionary with run-length coding. Monitoring telemetry — long
// runs of one metric, slowly-moving values, a steady tick — compresses an
// order of magnitude; the CRC and explicit frame length make a torn or
// damaged block detectable and skippable, exactly like the raw record
// framing.
const (
	blkMagic   = 0x4B4C4241 // "ABLK"
	blkVersion = 1

	// blockMaxRecords bounds one block so a decode allocates a bounded
	// amount and a corrupt length field cannot balloon memory.
	blockMaxRecords = 1024

	// blkHeaderSize is the fixed prefix before the dictionary.
	blkHeaderSize = 4 + 4 + 1 + 1 + 2 + 4
	// blkMinFrame is the smallest structurally-possible frame: header, no
	// dictionary entries, three empty streams, CRC.
	blkMinFrame = blkHeaderSize + 3*4 + 4
	// blkMaxFrame bounds a frame so a corrupt length cannot demand an
	// absurd read; generously above any frame blockMaxRecords can produce.
	blkMaxFrame = 1 << 24
)

// errBlock marks a block that failed a structural or CRC check.
var errBlock = errors.New("archive: corrupt block")

// bitWriter packs bits MSB-first.
type bitWriter struct {
	buf  []byte
	free uint // unused bits in the last byte
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v <<= 64 - n // left-align
	}
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := n
		if take > w.free {
			take = w.free
		}
		w.buf[len(w.buf)-1] |= byte(v >> (64 - take) << (w.free - take))
		v <<= take
		w.free -= take
		n -= take
	}
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b&1, 1) }

// bitReader consumes bits MSB-first.
type bitReader struct {
	buf []byte
	off int
	bit uint // bits already consumed from buf[off]
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.off >= len(r.buf) {
			return 0, errBlock
		}
		avail := 8 - r.bit
		take := n
		if take > avail {
			take = avail
		}
		cur := uint64(r.buf[r.off]>>(avail-take)) & (1<<take - 1)
		v = v<<take | cur
		r.bit += take
		if r.bit == 8 {
			r.off++
			r.bit = 0
		}
		n -= take
	}
	return v, nil
}

// xorEncoder holds the Gorilla value-compression state.
type xorEncoder struct {
	w          bitWriter
	prev       uint64
	lead, mean uint // current reuse window (mean = meaningful bit count)
	first      bool
}

func (e *xorEncoder) add(v float64) {
	b := math.Float64bits(v)
	if !e.first {
		e.first = true
		e.prev = b
		e.w.writeBits(b, 64)
		return
	}
	x := e.prev ^ b
	e.prev = b
	if x == 0 {
		e.w.writeBit(0)
		return
	}
	e.w.writeBit(1)
	lead := uint(bits.LeadingZeros64(x))
	if lead > 63 {
		lead = 63
	}
	trail := uint(bits.TrailingZeros64(x))
	mean := 64 - lead - trail
	if e.mean != 0 && lead >= e.lead && 64-lead-trail <= e.mean && trail >= 64-e.lead-e.mean {
		// Fits the previous window: control bit 0 + the windowed bits.
		e.w.writeBit(0)
		e.w.writeBits(x>>(64-e.lead-e.mean), e.mean)
		return
	}
	// New window: control bit 1, 6 bits of leading zeros, 6 bits of
	// (meaningful length - 1), then the meaningful bits.
	e.lead, e.mean = lead, mean
	e.w.writeBit(1)
	e.w.writeBits(uint64(lead), 6)
	e.w.writeBits(uint64(mean-1), 6)
	e.w.writeBits(x>>trail, mean)
}

// xorDecoder mirrors xorEncoder.
type xorDecoder struct {
	r          bitReader
	prev       uint64
	lead, mean uint
	first      bool
}

func (d *xorDecoder) next() (float64, error) {
	if !d.first {
		d.first = true
		v, err := d.r.readBits(64)
		if err != nil {
			return 0, err
		}
		d.prev = v
		return math.Float64frombits(v), nil
	}
	ctl, err := d.r.readBits(1)
	if err != nil {
		return 0, err
	}
	if ctl == 0 {
		return math.Float64frombits(d.prev), nil
	}
	newWin, err := d.r.readBits(1)
	if err != nil {
		return 0, err
	}
	if newWin == 1 {
		hdr, err := d.r.readBits(12)
		if err != nil {
			return 0, err
		}
		d.lead = uint(hdr >> 6)
		d.mean = uint(hdr&0x3F) + 1
	} else if d.mean == 0 {
		return 0, errBlock // window reuse before any window was defined
	}
	if d.lead+d.mean > 64 {
		return 0, errBlock
	}
	m, err := d.r.readBits(d.mean)
	if err != nil {
		return 0, err
	}
	d.prev ^= m << (64 - d.lead - d.mean)
	return math.Float64frombits(d.prev), nil
}

// encodeBlock appends one compressed block holding infos (at most
// blockMaxRecords of them) to dst and returns the extended slice.
func encodeBlock(dst []byte, tier uint8, infos []telemetry.Info) []byte {
	if len(infos) == 0 || len(infos) > blockMaxRecords {
		panic(fmt.Sprintf("archive: encodeBlock of %d records", len(infos)))
	}
	// Column dictionary for the Metric strings.
	dictIdx := make(map[telemetry.MetricID]int, 4)
	var dict []telemetry.MetricID
	for _, in := range infos {
		if _, ok := dictIdx[in.Metric]; !ok {
			dictIdx[in.Metric] = len(dict)
			dict = append(dict, in.Metric)
		}
	}
	// Meta stream: run-length (dict idx, kind|source, run length).
	var meta []byte
	runStart := 0
	flush := func(end int) {
		in := infos[runStart]
		meta = binary.AppendUvarint(meta, uint64(dictIdx[in.Metric]))
		meta = append(meta, byte(in.Kind)<<4|byte(in.Source)&0x0F)
		meta = binary.AppendUvarint(meta, uint64(end-runStart))
		runStart = end
	}
	for i := 1; i < len(infos); i++ {
		p, c := infos[i-1], infos[i]
		if c.Metric != p.Metric || c.Kind != p.Kind || c.Source != p.Source {
			flush(i)
		}
	}
	flush(len(infos))
	// Timestamp stream: delta-of-delta zigzag varints.
	var ts []byte
	prevTS, prevDelta := int64(0), int64(0)
	for i, in := range infos {
		if i == 0 {
			ts = binary.AppendVarint(ts, in.Timestamp)
		} else {
			delta := in.Timestamp - prevTS
			ts = binary.AppendVarint(ts, delta-prevDelta)
			prevDelta = delta
		}
		prevTS = in.Timestamp
	}
	// Value stream: Gorilla XOR bitstream.
	var xe xorEncoder
	for _, in := range infos {
		xe.add(in.Value)
	}

	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, blkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // frame length, patched below
	dst = append(dst, blkVersion, tier)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(dict)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(infos)))
	for _, m := range dict {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m)))
		dst = append(dst, m...)
	}
	for _, stream := range [][]byte{meta, ts, xe.w.buf} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(stream)))
		dst = append(dst, stream...)
	}
	frameLen := len(dst) - start + 4
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(frameLen))
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeBlock decodes one block from the front of b, returning the tuples
// and the frame length consumed. Any structural violation — short buffer,
// bad magic, CRC mismatch, inconsistent stream lengths — returns errBlock;
// the decoder never panics on hostile input.
func decodeBlock(b []byte) ([]telemetry.Info, int, error) {
	if len(b) < blkMinFrame {
		return nil, 0, errBlock
	}
	if binary.LittleEndian.Uint32(b) != blkMagic {
		return nil, 0, errBlock
	}
	frameLen := int(binary.LittleEndian.Uint32(b[4:]))
	if frameLen < blkMinFrame || frameLen > blkMaxFrame || frameLen > len(b) {
		return nil, 0, errBlock
	}
	frame := b[:frameLen]
	want := binary.LittleEndian.Uint32(frame[frameLen-4:])
	if crc32.ChecksumIEEE(frame[:frameLen-4]) != want {
		return nil, 0, errBlock
	}
	if frame[8] != blkVersion {
		return nil, 0, errBlock
	}
	dictN := int(binary.LittleEndian.Uint16(frame[10:]))
	records := int(binary.LittleEndian.Uint32(frame[12:]))
	if records == 0 || records > blockMaxRecords {
		return nil, 0, errBlock
	}
	p := blkHeaderSize
	dict := make([]telemetry.MetricID, dictN)
	for i := 0; i < dictN; i++ {
		if p+2 > frameLen-4 {
			return nil, 0, errBlock
		}
		ml := int(binary.LittleEndian.Uint16(frame[p:]))
		p += 2
		if p+ml > frameLen-4 {
			return nil, 0, errBlock
		}
		dict[i] = telemetry.MetricID(frame[p : p+ml])
		p += ml
	}
	var streams [3][]byte
	for i := range streams {
		if p+4 > frameLen-4 {
			return nil, 0, errBlock
		}
		n := int(binary.LittleEndian.Uint32(frame[p:]))
		p += 4
		if n < 0 || p+n > frameLen-4 {
			return nil, 0, errBlock
		}
		streams[i] = frame[p : p+n]
		p += n
	}
	if p != frameLen-4 {
		return nil, 0, errBlock
	}

	out := make([]telemetry.Info, 0, records)
	meta, ts := streams[0], streams[1]
	xd := xorDecoder{r: bitReader{buf: streams[2]}}
	prevTS, prevDelta := int64(0), int64(0)
	for len(out) < records {
		// One meta run.
		di, n := binary.Uvarint(meta)
		if n <= 0 || di >= uint64(dictN) {
			return nil, 0, errBlock
		}
		meta = meta[n:]
		if len(meta) < 1 {
			return nil, 0, errBlock
		}
		ks := meta[0]
		meta = meta[1:]
		run, n := binary.Uvarint(meta)
		if n <= 0 || run == 0 || run > uint64(records-len(out)) {
			return nil, 0, errBlock
		}
		meta = meta[n:]
		metric := dict[di]
		kind, source := telemetry.Kind(ks>>4), telemetry.Source(ks&0x0F)
		for j := uint64(0); j < run; j++ {
			dod, n := binary.Varint(ts)
			if n <= 0 {
				return nil, 0, errBlock
			}
			ts = ts[n:]
			if len(out) == 0 {
				prevTS = dod // first record carries the absolute timestamp
			} else {
				prevDelta += dod
				prevTS += prevDelta
			}
			v, err := xd.next()
			if err != nil {
				return nil, 0, errBlock
			}
			out = append(out, telemetry.Info{
				Metric: metric, Timestamp: prevTS, Value: v,
				Kind: kind, Source: source,
			})
		}
	}
	if len(meta) != 0 || len(ts) != 0 {
		return nil, 0, errBlock
	}
	return out, frameLen, nil
}

// encodeBlocks renders infos as a sequence of blocks of at most
// blockMaxRecords each, returning the file bytes and a block-granular index
// (one sparse entry per block: its byte offset and first timestamp).
func encodeBlocks(tier uint8, infos []telemetry.Info) ([]byte, *segIndex) {
	var out []byte
	si := &segIndex{sorted: true}
	for len(infos) > 0 {
		n := len(infos)
		if n > blockMaxRecords {
			n = blockMaxRecords
		}
		chunk := infos[:n]
		off := int64(len(out))
		out = encodeBlock(out, tier, chunk)
		si.offs = append(si.offs, idxEntry{off: off, ts: chunk[0].Timestamp})
		for _, in := range chunk {
			if si.records == 0 {
				si.firstTS, si.lastTS = in.Timestamp, in.Timestamp
			} else if in.Timestamp < si.lastTS {
				si.sorted = false
			}
			if in.Timestamp < si.firstTS {
				si.firstTS = in.Timestamp
			}
			if in.Timestamp > si.lastTS {
				si.lastTS = in.Timestamp
			}
			si.records++
		}
		infos = infos[n:]
	}
	si.size = int64(len(out))
	return out, si
}

// resyncBlock scans forward for the next offset at which a whole block
// decodes, mirroring resync for raw records. Returns -1 when nothing
// decodable remains.
func resyncBlock(b []byte) int {
	for off := 0; off+blkMinFrame <= len(b); off++ {
		if binary.LittleEndian.Uint32(b[off:]) != blkMagic {
			continue
		}
		if _, _, err := decodeBlock(b[off:]); err == nil {
			return off
		}
	}
	return -1
}

// buildBlockIndex scans a compressed segment file and constructs its
// block-granular index, skipping corrupt blocks the way replay does.
func buildBlockIndex(path string) (*segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	si := &segIndex{size: int64(len(data)), sorted: true}
	off := 0
	for off < len(data) {
		infos, n, derr := decodeBlock(data[off:])
		if derr != nil {
			skip := resyncBlock(data[off+1:])
			if skip < 0 {
				break
			}
			off += 1 + skip
			continue
		}
		si.offs = append(si.offs, idxEntry{off: int64(off), ts: infos[0].Timestamp})
		for _, in := range infos {
			if si.records == 0 {
				si.firstTS, si.lastTS = in.Timestamp, in.Timestamp
			} else if in.Timestamp < si.lastTS {
				si.sorted = false
			}
			if in.Timestamp < si.firstTS {
				si.firstTS = in.Timestamp
			}
			if in.Timestamp > si.lastTS {
				si.lastTS = in.Timestamp
			}
			si.records++
		}
		off += n
	}
	return si, nil
}
