// Package block is the Gorilla-style compressed block codec for Information
// tuples: a Writer encodes tuples into columns and renders them as one
// self-checking frame, a Reader checks a frame and decodes its tuples one at
// a time. It knows nothing of where frames are kept; the archive writes them
// to its segment files and the stream broker seals retained chunks with them.
//
// A frame holds up to MaxRecords tuples in columnar form:
//
//	u32  magic "ABLK"
//	u32  frame length in bytes (header through CRC)
//	u8   version (2)
//	u8   tier (a byte the caller chooses, e.g. the archive's roll-up tier)
//	u16  metric dictionary entries
//	u32  record count
//	[..] dictionary: { u16 len, bytes } per unique MetricID, first-use order
//	u32  meta stream length    — run-length (dict idx, kind, run)
//	[..] meta stream
//	u32  source stream length  — one byte: 0 (all Measured), 1 (all
//	[..] source stream           Predicted), or 2 then a bit a record, MSB first
//	u32  timestamp stream len  — varint delta-of-delta
//	[..] timestamp stream
//	u32  value stream length   — Gorilla XOR bitstream
//	[..] value stream
//	[..] further streams, each { u32 len, bytes }, which this reader skips
//	u32  crc32 (IEEE) of everything above
//
// Timestamps are delta-of-delta coded (zigzag varints: a fixed-interval
// series costs one byte per record), values are XOR-compressed against the
// previous value (an unchanged reading costs one bit), the Info string
// column (Metric) collapses into a per-block dictionary whose index runs,
// with Kind, are run-length coded, and Source, which Delphi's fill flips
// every few records, costs one byte a frame when it never changes and one
// bit a record when it does. Monitoring telemetry — long runs of one
// metric, slowly-moving values, a steady tick — compresses an order of
// magnitude; the CRC and explicit frame length make a torn or damaged block
// detectable and skippable.
//
// Version 1 frames, which earlier builds wrote, differ only in that the meta
// runs are keyed by (dict idx, kind<<4|source) and no source stream follows
// them; Reader decodes both versions, Writer writes version 2.
package block

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"repro/internal/telemetry"
)

const (
	blkMagic   = 0x4B4C4241 // "ABLK"
	blkVersion = 2

	// MaxRecords bounds one block so a decode allocates a bounded amount
	// and a corrupt length field cannot balloon memory.
	MaxRecords = 1024

	// blkHeaderSize is the fixed prefix before the dictionary.
	blkHeaderSize = 4 + 4 + 1 + 1 + 2 + 4
	// blkMinFrame is the smallest structurally-possible frame: header, no
	// dictionary entries, three empty streams (a version 1 frame's), CRC.
	blkMinFrame = blkHeaderSize + 3*4 + 4
	// blkMaxFrame bounds a frame so a corrupt length cannot demand an
	// absurd read; above any frame MaxRecords can produce, even with a
	// distinct 64 KiB metric name per record.
	blkMaxFrame = 1 << 27
)

// ErrCorrupt marks a frame that failed a structural or CRC check.
var ErrCorrupt = errors.New("block: corrupt frame")

// bitWriter packs bits MSB-first through a 64-bit accumulator, flushed to buf
// eight bytes at a time, so a write is a few shifts.
type bitWriter struct {
	buf []byte
	acc uint64 // the pending bits, MSB-aligned
	n   uint   // pending bits in acc, < 64
}

// writeBits writes the low n bits of v (n <= 64).
func (w *bitWriter) writeBits(v uint64, n uint) {
	v <<= 64 - n // left-align; bits above the n are shifted out
	w.acc |= v >> w.n
	if w.n+n < 64 {
		w.n += n
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = v << (64 - w.n) // the bits that did not fit; none when w.n is 0
	w.n += n - 64
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b&1, 1) }

// appendStream appends the bits written so far to dst, length-prefixed like
// the byte streams of the package-level appendStream and the last byte
// zero-padded, without changing w.
func (w *bitWriter) appendStream(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.buf)+int(w.n+7)/8))
	dst = append(dst, w.buf...)
	for i := uint(0); i < w.n; i += 8 {
		dst = append(dst, byte(w.acc>>(56-i)))
	}
	return dst
}

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
		return 0, ErrCorrupt
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
		return 0, ErrCorrupt
	case r.acc>>63 == 0: // unchanged
		r.acc <<= 1
		r.n--
		return math.Float64frombits(d.prev), nil
	case r.n < 2:
		return 0, ErrCorrupt
	case r.acc>>62&1 == 1: // a new window
		if r.n < 14 {
			return 0, ErrCorrupt
		}
		d.lead, d.mean = uint(r.acc>>56&0x3F), uint(r.acc>>50&0x3F)+1
		r.acc <<= 14
		r.n -= 14
	case d.mean == 0:
		return 0, ErrCorrupt // window reuse before any window was defined
	default:
		r.acc <<= 2
		r.n -= 2
	}
	if d.lead+d.mean > 64 {
		return 0, ErrCorrupt
	}
	m, err := d.r.readBits(d.mean)
	if err != nil {
		return 0, err
	}
	d.prev ^= m << (64 - d.lead - d.mean)
	return math.Float64frombits(d.prev), nil
}

// Writer is a block being built one record at a time: it holds the encoded
// columns, never the tuples, so an open block of a steady series costs a few
// bytes a record. The run being extended is kept aside and written into the
// meta column when it ends. AppendFrame renders the block without changing
// it; Reset empties it and keeps the columns' capacity.
type Writer struct {
	n                 int // records
	firstTS           int64
	prevTS, prevDelta int64
	dict              []telemetry.MetricID
	meta              []byte // the closed runs
	runDict, runLen   int    // the open run
	runKind           telemetry.Kind
	src               []byte // one bit per record, MSB first
	predicted         int    // records whose Source is Predicted
	ts                []byte
	vals              xorEncoder
}

// Add appends one record. The caller keeps Len below MaxRecords, the metric
// name below 64 KiB, and Source Measured or Predicted.
func (b *Writer) Add(in telemetry.Info) {
	di := b.runDict
	if b.n == 0 || b.dict[di] != in.Metric {
		if di = slices.Index(b.dict, in.Metric); di < 0 {
			di = len(b.dict)
			b.dict = append(b.dict, in.Metric)
		}
	}
	if b.runLen > 0 && (di != b.runDict || in.Kind != b.runKind) {
		b.meta = appendRun(b.meta, b.runDict, byte(b.runKind), b.runLen)
		b.runLen = 0
	}
	b.runDict, b.runKind = di, in.Kind
	b.runLen++
	if b.n%8 == 0 {
		b.src = append(b.src, 0)
	}
	if in.Source != telemetry.Measured {
		b.src[b.n/8] |= 0x80 >> (b.n % 8)
		b.predicted++
	}
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

// Len is how many records the block holds.
func (b *Writer) Len() int { return b.n }

// FirstTimestamp is the timestamp of the block's first record.
func (b *Writer) FirstTimestamp() int64 { return b.firstTS }

func appendRun(dst []byte, dict int, kind byte, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(dict))
	dst = append(dst, kind)
	return binary.AppendUvarint(dst, uint64(n))
}

// The source stream's first byte: every record Measured, every record
// Predicted, or one bit per record following.
const (
	srcMeasured  = 0
	srcPredicted = 1
	srcBits      = 2
)

func appendStream(dst, s []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendFrame appends the block, sealed as one frame carrying the given
// tier byte, to dst. The block must hold at least one record.
func (b *Writer) AppendFrame(dst []byte, tier uint8) []byte {
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
	last := appendRun(run[:0], b.runDict, byte(b.runKind), b.runLen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.meta)+len(last)))
	dst = append(append(dst, b.meta...), last...)
	tag, src := byte(srcBits), b.src
	switch b.predicted {
	case 0:
		tag, src = srcMeasured, nil
	case b.n:
		tag, src = srcPredicted, nil
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(src)))
	dst = append(append(dst, tag), src...)
	dst = b.vals.w.appendStream(appendStream(dst, b.ts))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(dst)-start+4))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Reset empties the block, keeping its columns' capacity.
func (b *Writer) Reset() {
	*b = Writer{dict: b.dict[:0], meta: b.meta[:0], src: b.src[:0], ts: b.ts[:0], vals: xorEncoder{w: bitWriter{buf: b.vals.w.buf[:0]}}}
}

// Reader decodes the records of one frame, one at a time, so a reader
// decodes no further than it reads. A Reader is reused frame after frame:
// its metric dictionary keeps the names it decoded, so a scan over many
// blocks of one series names it once.
type Reader struct {
	i, records int // records decoded, in the frame
	v1         bool
	dict       []telemetry.MetricID
	meta, ts   []byte
	src        []byte // one bit per record, or nil: every record has in.Source
	vals       xorDecoder
	run        uint64 // records left in the current meta run
	prevDelta  int64
	in         telemetry.Info // the record last decoded
	err        error
}

// Open checks the frame at the front of b — magic, length, CRC, version,
// dictionary and stream bounds — and readies r to decode its records,
// returning the frame length. A metric name is allocated only where r's
// dictionary does not already hold it at that position. A failed check
// returns ErrCorrupt; the decoder never panics on hostile input.
func (r *Reader) Open(b []byte) (int, error) {
	if len(b) < blkMinFrame {
		return 0, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(b) != blkMagic {
		return 0, ErrCorrupt
	}
	frameLen := int(binary.LittleEndian.Uint32(b[4:]))
	if frameLen < blkMinFrame || frameLen > blkMaxFrame || frameLen > len(b) {
		return 0, ErrCorrupt
	}
	frame := b[:frameLen]
	want := binary.LittleEndian.Uint32(frame[frameLen-4:])
	if crc32.ChecksumIEEE(frame[:frameLen-4]) != want {
		return 0, ErrCorrupt
	}
	v1 := frame[8] == 1
	if !v1 && frame[8] != blkVersion {
		return 0, ErrCorrupt
	}
	dictN := int(binary.LittleEndian.Uint16(frame[10:]))
	records := int(binary.LittleEndian.Uint32(frame[12:]))
	if records == 0 || records > MaxRecords {
		return 0, ErrCorrupt
	}
	p := blkHeaderSize
	dict := slices.Grow(r.dict[:0], dictN)[:dictN]
	r.dict = dict
	for i := range dict {
		if p+2 > frameLen-4 {
			return 0, ErrCorrupt
		}
		ml := int(binary.LittleEndian.Uint16(frame[p:]))
		p += 2
		if p+ml > frameLen-4 {
			return 0, ErrCorrupt
		}
		if string(dict[i]) != string(frame[p:p+ml]) {
			dict[i] = telemetry.MetricID(frame[p : p+ml])
		}
		p += ml
	}
	// The streams: meta, source (none in version 1, whose meta runs carry
	// the sources), timestamps, values; then, in version 2, any streams a
	// later revision adds, which are bounds-checked and skipped.
	var streams [4][]byte
	for i := 0; i < len(streams) || !v1 && p < frameLen-4; i++ {
		if v1 && i == 1 {
			continue
		}
		if p+4 > frameLen-4 {
			return 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(frame[p:]))
		p += 4
		if n < 0 || p+n > frameLen-4 {
			return 0, ErrCorrupt
		}
		if i < len(streams) {
			streams[i] = frame[p : p+n]
		}
		p += n
	}
	if p != frameLen-4 {
		return 0, ErrCorrupt
	}
	*r = Reader{records: records, v1: v1, dict: dict, meta: streams[0], ts: streams[2], vals: xorDecoder{r: bitReader{buf: streams[3]}}}
	switch src := streams[1]; {
	case v1:
	case len(src) == 1 && src[0] <= srcPredicted:
		r.in.Source = telemetry.Source(src[0])
	case len(src) == 1+(records+7)/8 && src[0] == srcBits:
		r.src = src[1:]
	default:
		return 0, ErrCorrupt
	}
	return frameLen, nil
}

// Records is the record count in the header of frame, which the caller
// rendered or has opened.
func Records(frame []byte) int { return int(binary.LittleEndian.Uint32(frame[12:])) }

// Next decodes the frame's next record, which Info then returns. It reports
// false at the end of the frame, and at a record that does not decode, after
// which Err returns ErrCorrupt. A frame that passed its CRC is malformed
// only if it was crafted; the records before the failure stay decoded.
func (r *Reader) Next() bool {
	if r.i == r.records || r.err != nil {
		return false
	}
	r.err = r.next()
	return r.err == nil
}

// Info is the record Next decoded last.
func (r *Reader) Info() telemetry.Info { return r.in }

// Err is the decode failure that ended Next, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) next() error {
	if r.run == 0 {
		di, n := binary.Uvarint(r.meta)
		if n <= 0 || di >= uint64(len(r.dict)) || n >= len(r.meta) {
			return ErrCorrupt
		}
		kind := r.meta[n]
		run, m := binary.Uvarint(r.meta[n+1:])
		if m <= 0 || run == 0 || run > uint64(r.records-r.i) {
			return ErrCorrupt
		}
		r.meta, r.run = r.meta[n+1+m:], run
		r.in.Metric, r.in.Kind = r.dict[di], telemetry.Kind(kind)
		if r.v1 {
			r.in.Kind, r.in.Source = telemetry.Kind(kind>>4), telemetry.Source(kind&0x0F)
		}
	}
	if r.src != nil {
		r.in.Source = telemetry.Source(r.src[r.i/8] >> (7 - r.i%8) & 1)
	}
	dod, n := binary.Varint(r.ts)
	if n <= 0 {
		return ErrCorrupt
	}
	r.ts = r.ts[n:]
	if r.i == 0 {
		r.in.Timestamp = dod // the first record carries the absolute timestamp
	} else {
		r.prevDelta += dod
		r.in.Timestamp += r.prevDelta
	}
	v, err := r.vals.next()
	if err != nil {
		return err
	}
	r.in.Value = v
	r.run--
	r.i++
	if r.i == r.records && (len(r.meta) != 0 || len(r.ts) != 0) {
		return ErrCorrupt
	}
	return nil
}

// Resync scans forward for the next offset at which a frame passes Open's
// checks. Returns -1 when none remains.
func Resync(b []byte) int {
	var r Reader
	for off := 0; off+blkMinFrame <= len(b); off++ {
		if binary.LittleEndian.Uint32(b[off:]) != blkMagic {
			continue
		}
		if _, err := r.Open(b[off:]); err == nil {
			return off
		}
	}
	return -1
}
