package archive

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"repro/internal/telemetry"
)

// Gorilla-style compressed block format, the archive's one on-disk encoding.
// Every data file (`segment-XXXXXXXX.blk` for full resolution, including the
// active segment, or `rollupN-XXXXXXXX.blk` for downsampled tiers) is a
// sequence of self-framing blocks, each holding up to blockMaxRecords
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
// damaged block detectable and skippable.
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
	// absurd read; above any frame blockMaxRecords can produce, even with a
	// distinct 64 KiB metric name per record.
	blkMaxFrame = 1 << 27
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

// bitReader consumes bits MSB-first through a 64-bit accumulator, refilled
// eight bytes at a time where eight remain, so a read is a few shifts.
type bitReader struct {
	buf []byte
	off int    // next byte of buf to load into acc
	acc uint64 // the next bits, MSB-aligned
	n   uint   // valid bits in acc
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	if n > 56 {
		hi, err := r.readBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.readBits(32)
		return hi<<32 | lo, err
	}
	if r.n < n && !r.fill(n) {
		return 0, errBlock
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v, nil
}

// fill loads whole bytes into acc and reports whether it holds n bits.
func (r *bitReader) fill(n uint) bool {
	if r.off+8 <= len(r.buf) {
		k := (64 - r.n) / 8 // whole bytes that fit
		w := binary.BigEndian.Uint64(r.buf[r.off:])
		r.acc |= w >> (64 - 8*k) << (64 - 8*k) >> r.n
		r.off += int(k)
		r.n += 8 * k
		return true
	}
	for ; r.n <= 56 && r.off < len(r.buf); r.n += 8 {
		r.acc |= uint64(r.buf[r.off]) << (56 - r.n)
		r.off++
	}
	return r.n >= n
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
	// The control bits and a new window's header are at most 14 bits: read
	// them straight off the accumulator.
	r := &d.r
	if r.n < 14 {
		r.fill(14)
	}
	switch {
	case r.n < 1:
		return 0, errBlock
	case r.acc>>63 == 0: // unchanged
		r.acc <<= 1
		r.n--
		return math.Float64frombits(d.prev), nil
	case r.n < 2:
		return 0, errBlock
	case r.acc>>62&1 == 1: // a new window
		if r.n < 14 {
			return 0, errBlock
		}
		d.lead, d.mean = uint(r.acc>>56&0x3F), uint(r.acc>>50&0x3F)+1
		r.acc <<= 14
		r.n -= 14
	case d.mean == 0:
		return 0, errBlock // window reuse before any window was defined
	default:
		r.acc <<= 2
		r.n -= 2
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

// openBlock is a block being built one record at a time: it holds the
// encoded columns, never the tuples, so an open block of a steady series
// costs a few bytes a record. The run being extended is kept aside and
// written into the meta column when it ends. frame renders the block
// without changing it; reset empties it and keeps the columns' capacity.
type openBlock struct {
	n                 int // records
	firstTS           int64
	prevTS, prevDelta int64
	dict              []telemetry.MetricID
	meta              []byte // the closed runs
	runDict, runLen   int    // the open run
	runKS             byte
	ts                []byte
	vals              xorEncoder
}

// add appends one record. The caller keeps n below blockMaxRecords, the
// metric name below 64 KiB, and Kind and Source below 16.
func (b *openBlock) add(in telemetry.Info) {
	di := b.runDict
	if b.n == 0 || b.dict[di] != in.Metric {
		if di = slices.Index(b.dict, in.Metric); di < 0 {
			di = len(b.dict)
			b.dict = append(b.dict, in.Metric)
		}
	}
	ks := byte(in.Kind)<<4 | byte(in.Source)&0x0F
	if b.runLen > 0 && (di != b.runDict || ks != b.runKS) {
		b.meta = appendRun(b.meta, b.runDict, b.runKS, b.runLen)
		b.runLen = 0
	}
	b.runDict, b.runKS = di, ks
	b.runLen++
	if b.n == 0 {
		b.firstTS = in.Timestamp
		b.ts = binary.AppendVarint(b.ts, in.Timestamp) // the absolute first timestamp
	} else {
		delta := in.Timestamp - b.prevTS
		b.ts = binary.AppendVarint(b.ts, delta-b.prevDelta)
		b.prevDelta = delta
	}
	b.prevTS = in.Timestamp
	b.vals.add(in.Value)
	b.n++
}

func appendRun(dst []byte, dict int, ks byte, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(dict))
	dst = append(dst, ks)
	return binary.AppendUvarint(dst, uint64(n))
}

func appendStream(dst, s []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// frame appends the block, sealed as one frame of the given tier, to dst.
// The block must hold at least one record.
func (b *openBlock) frame(dst []byte, tier uint8) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, blkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // frame length, patched below
	dst = append(dst, blkVersion, tier)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b.dict)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.n))
	for _, m := range b.dict {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m)))
		dst = append(dst, m...)
	}
	var run [2*binary.MaxVarintLen64 + 1]byte
	last := appendRun(run[:0], b.runDict, b.runKS, b.runLen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.meta)+len(last)))
	dst = append(append(dst, b.meta...), last...)
	dst = appendStream(appendStream(dst, b.ts), b.vals.w.buf)
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(dst)-start+4))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func (b *openBlock) reset() {
	*b = openBlock{dict: b.dict[:0], meta: b.meta[:0], ts: b.ts[:0], vals: xorEncoder{w: bitWriter{buf: b.vals.w.buf[:0]}}}
}

// scanBuf is scratch for one read or one block write: the bytes read, a
// copy of the open block, the metric names decoded from them and the frame
// being decoded.
type scanBuf struct {
	data, tail []byte
	dict       []telemetry.MetricID
	frame      frameReader
}

// scanBufs is a free list of scratch. Reads and block writes take one and
// give it back, so a steady stream of them allocates nothing: unlike a
// sync.Pool, the list keeps what it holds across collections (and, under
// the race detector, does not drop a quarter of it). It holds eight, more
// than a service reads and writes archives at once (a query client or two,
// the compactor, the appending vertices' turns at a block write); scratch
// past that is allocated and dropped.
var scanBufs = make(chan *scanBuf, 8)

func getScanBuf() *scanBuf {
	select {
	case sc := <-scanBufs:
		return sc
	default:
		return new(scanBuf)
	}
}

// release returns sc to the free list, unless the list is full or sc grew
// past 1 MiB of bytes.
func (sc *scanBuf) release() {
	if cap(sc.data)+cap(sc.tail) <= 1<<20 {
		select {
		case scanBufs <- sc:
		default:
		}
	}
}

// openFrame checks the block at the front of b — magic, length, CRC,
// version, dictionary and stream bounds — and readies sc.frame to decode its
// records, returning the frame length. A metric name is allocated only where
// sc.dict does not already hold it at that position, so a scan over many
// blocks of one series names it once. A failed check returns errBlock; the
// decoder never panics on hostile input. Every reader decodes through here.
func openFrame(b []byte, sc *scanBuf) (int, error) {
	if len(b) < blkMinFrame {
		return 0, errBlock
	}
	if binary.LittleEndian.Uint32(b) != blkMagic {
		return 0, errBlock
	}
	frameLen := int(binary.LittleEndian.Uint32(b[4:]))
	if frameLen < blkMinFrame || frameLen > blkMaxFrame || frameLen > len(b) {
		return 0, errBlock
	}
	frame := b[:frameLen]
	want := binary.LittleEndian.Uint32(frame[frameLen-4:])
	if crc32.ChecksumIEEE(frame[:frameLen-4]) != want {
		return 0, errBlock
	}
	if frame[8] != blkVersion {
		return 0, errBlock
	}
	dictN := int(binary.LittleEndian.Uint16(frame[10:]))
	records := int(binary.LittleEndian.Uint32(frame[12:]))
	if records == 0 || records > blockMaxRecords {
		return 0, errBlock
	}
	p := blkHeaderSize
	dict := slices.Grow(sc.dict[:0], dictN)[:dictN]
	sc.dict = dict
	for i := range dict {
		if p+2 > frameLen-4 {
			return 0, errBlock
		}
		ml := int(binary.LittleEndian.Uint16(frame[p:]))
		p += 2
		if p+ml > frameLen-4 {
			return 0, errBlock
		}
		if string(dict[i]) != string(frame[p:p+ml]) {
			dict[i] = telemetry.MetricID(frame[p : p+ml])
		}
		p += ml
	}
	var streams [3][]byte
	for i := range streams {
		if p+4 > frameLen-4 {
			return 0, errBlock
		}
		n := int(binary.LittleEndian.Uint32(frame[p:]))
		p += 4
		if n < 0 || p+n > frameLen-4 {
			return 0, errBlock
		}
		streams[i] = frame[p : p+n]
		p += n
	}
	if p != frameLen-4 {
		return 0, errBlock
	}
	sc.frame = frameReader{records: records, dict: dict, meta: streams[0], ts: streams[1], vals: xorDecoder{r: bitReader{buf: streams[2]}}}
	return frameLen, nil
}

// frameReader decodes the records of a frame openFrame checked, one at a
// time, so a reader decodes no further than it reads.
type frameReader struct {
	i, records int // records decoded, in the frame
	dict       []telemetry.MetricID
	meta, ts   []byte
	vals       xorDecoder
	run        uint64 // records left in the current meta run
	prevDelta  int64
	in         telemetry.Info // the record last decoded
}

// next decodes the frame's next record into f.in. A frame that passed its
// CRC is malformed only if it was crafted; next then fails with errBlock,
// and the records before it stay decoded.
func (f *frameReader) next() error {
	if f.run == 0 {
		di, n := binary.Uvarint(f.meta)
		if n <= 0 || di >= uint64(len(f.dict)) || n >= len(f.meta) {
			return errBlock
		}
		ks := f.meta[n]
		run, m := binary.Uvarint(f.meta[n+1:])
		if m <= 0 || run == 0 || run > uint64(f.records-f.i) {
			return errBlock
		}
		f.meta, f.run = f.meta[n+1+m:], run
		f.in.Metric, f.in.Kind, f.in.Source = f.dict[di], telemetry.Kind(ks>>4), telemetry.Source(ks&0x0F)
	}
	dod, n := binary.Varint(f.ts)
	if n <= 0 {
		return errBlock
	}
	f.ts = f.ts[n:]
	if f.i == 0 {
		f.in.Timestamp = dod // the first record carries the absolute timestamp
	} else {
		f.prevDelta += dod
		f.in.Timestamp += f.prevDelta
	}
	v, err := f.vals.next()
	if err != nil {
		return err
	}
	f.in.Value = v
	f.run--
	f.i++
	if f.i == f.records && (len(f.meta) != 0 || len(f.ts) != 0) {
		return errBlock
	}
	return nil
}

// encodeBlocks renders infos as a sequence of blocks of at most
// blockMaxRecords each, returning the file bytes and its index.
func encodeBlocks(tier uint8, infos []telemetry.Info) ([]byte, *segIndex) {
	var (
		out []byte
		b   openBlock
	)
	si := &segIndex{}
	for i, in := range infos {
		b.add(in)
		si.note(in.Timestamp)
		if b.n == blockMaxRecords || i == len(infos)-1 {
			si.offs = append(si.offs, idxEntry{off: int64(len(out)), ts: b.firstTS})
			out = b.frame(out, tier)
			b.reset()
		}
	}
	si.size = int64(len(out))
	return out, si
}

// resyncBlock scans forward for the next offset at which a frame passes
// openFrame's checks. Returns -1 when none remains.
func resyncBlock(b []byte) int {
	var sc scanBuf
	for off := 0; off+blkMinFrame <= len(b); off++ {
		if binary.LittleEndian.Uint32(b[off:]) != blkMagic {
			continue
		}
		if _, err := openFrame(b[off:], &sc); err == nil {
			return off
		}
	}
	return -1
}

// scanBlocks streams the in-window records of data's blocks, decoding
// through sc; in sorted data it decodes nothing past the first record after
// to. A region that does not decode is skipped by resynchronizing on the
// next block that does, and counted; an undecodable run with nothing after
// it is a torn write — silent — only where the caller says data ends at the
// tail of the highest raw-tier segment. A crafted frame that fails
// mid-block counts too.
func scanBlocks(data []byte, sc *scanBuf, sorted, tornTailOK bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, err error) {
	for len(data) > 0 {
		n, derr := openFrame(data, sc)
		if derr != nil {
			skip := resyncBlock(data[1:])
			if skip < 0 {
				if tornTailOK {
					return corrupt, nil
				}
				return corrupt + 1, nil
			}
			corrupt++
			data = data[1+skip:]
			continue
		}
		data = data[n:]
		for f := &sc.frame; f.i < f.records; {
			if f.next() != nil {
				corrupt++
				break
			}
			if f.in.Timestamp > to {
				if sorted {
					return corrupt, nil
				}
				continue
			}
			if f.in.Timestamp < from {
				continue
			}
			if err := fn(f.in); err != nil {
				return corrupt, err
			}
		}
	}
	return corrupt, nil
}
