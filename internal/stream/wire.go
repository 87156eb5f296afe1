package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Wire protocol: every frame is
//
//	u8  opcode (request) / status (response)
//	u32 payload length (little endian)
//	[..] payload
//
// Payload fields are encoded with writeString (u16 len + bytes), writeBytes
// (u32 len + bytes), and fixed-width little-endian integers.

// Request opcodes. 0x01 (singular publish), 0x04 (singular consume), 0x06-0x08
// (consumer-group create, read, ack) and 0x0C (batched consume) are retired and
// stay reserved: a single tuple rides the batch frames with n=1, a consumer
// keeps its own position with Follow, and a server answers the old numbers
// with "unknown opcode". No request parks a pipelined connection: Subscribe,
// the one op that waits for data, has a connection of its own.
const (
	opLatest    = 0x02 // topic                    -> entry
	opRange     = 0x03 // topic, from, to, max     -> u32 n, n entries
	opSubscribe = 0x05 // topic, afterID           -> stream of entries
	opTopics    = 0x09 //                          -> u32 n, n strings
	opPing      = 0x0A //                          -> ok (liveness / conn check)

	// The publish verb: one frame carries many entries, amortizing the
	// per-frame syscall + header cost and (broker-side) the per-append lock.
	opPublishBatch = 0x0B // topic, u32 n, n payloads -> u64 firstID, u32 n

	// Replicated fabric: inter-broker replication, topology discovery, and
	// the lease protocol proxied to the fabric's coordination node. The
	// replicate frame reuses the multi-entry body of opRange and subscription
	// frames.
	opReplicate    = 0x0D // topic, u64 epoch, entries      -> u64 lastID
	opTopicTail    = 0x0E // topic                          -> u64 epoch, u64 lastID
	opTopology     = 0x0F //                                -> u32 n, n x (id, addr)
	opReplStatus   = 0x10 //                                -> u32 n, n x status
	opLeaseHolder  = 0x11 // topic                          -> u8 found, lease
	opLeaseAcquire = 0x12 // topic, node                    -> u8 ok, lease
	opLeaseRenew   = 0x13 // topic, node, u64 epoch         -> u8 ok, lease
)

// Response statuses.
const (
	statusOK  = 0x00
	statusErr = 0x01
)

// opReplicate responds statusOK with a result code so the follower's tail
// ID survives the fencing/gap sentinels (a statusErr frame carries only the
// error message, and the leader needs the tail to backfill a gap).
const (
	replOK     = 0x00
	replFenced = 0x01
	replGap    = 0x02
)

const maxFrame = 16 << 20

// frameOverhead is the fixed per-frame header size (op byte + u32 length).
const frameOverhead = 5

var errFrameTooLarge = errors.New("stream: frame exceeds 16MiB limit")

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > maxFrame {
		return errFrameTooLarge
	}
	hdr := [5]byte{op}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into a buffer of its own.
func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	op, n, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(r, nil, n); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// readHeader reads a frame's header: the opcode (or status) and the length of
// the payload that follows, refused beyond maxFrame before any of it is read.
func readHeader(r io.Reader) (op byte, n int, err error) {
	var hdr [frameOverhead]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size > maxFrame {
		return 0, 0, errFrameTooLarge
	}
	return hdr[0], int(size), nil
}

// readPayload reads the n payload bytes behind a header into scratch's
// backing array when that holds them, into a fresh buffer otherwise. A caller
// that passes the returned slice back in reuses one buffer across frames;
// whatever it handed out from the previous frame is overwritten.
func readPayload(r io.Reader, scratch []byte, n int) ([]byte, error) {
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	_, err := io.ReadFull(r, scratch)
	return scratch, err
}

// buf is a tiny cursor-based decoder over a frame payload.
type buf struct {
	b   []byte
	pos int
	err error
}

func (d *buf) fail() {
	if d.err == nil {
		d.err = errors.New("stream: truncated frame")
	}
}

func (d *buf) u8() byte {
	if d.err != nil || d.pos+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *buf) u16() uint16 {
	if d.err != nil || d.pos+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.pos:])
	d.pos += 2
	return v
}

func (d *buf) u32() uint32 {
	if d.err != nil || d.pos+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *buf) u64() uint64 {
	if d.err != nil || d.pos+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *buf) str() string {
	n := int(d.u16())
	if d.err != nil || d.pos+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	return s
}

// bytes returns a capacity-capped view of the frame, not a copy. A frame
// from readFrame is never reused, so the view stays valid for as long as it
// is held (and pins the whole frame for as long); a frame read into a reused
// buffer (readPayload) is valid until the next one is read.
func (d *buf) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || d.pos+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return v
}

// enc builds frame payloads.
type enc struct{ b []byte }

func (e *enc) u8(v byte) *enc    { e.b = append(e.b, v); return e }
func (e *enc) u16(v uint16) *enc { e.b = binary.LittleEndian.AppendUint16(e.b, v); return e }
func (e *enc) u32(v uint32) *enc { e.b = binary.LittleEndian.AppendUint32(e.b, v); return e }
func (e *enc) u64(v uint64) *enc { e.b = binary.LittleEndian.AppendUint64(e.b, v); return e }
func (e *enc) str(s string) *enc {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
	return e
}
func (e *enc) bytes(p []byte) *enc {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
	return e
}

func encodeEntry(e *enc, entry Entry) {
	e.u64(entry.ID)
	e.bytes(entry.Payload)
}

func decodeEntry(d *buf) Entry {
	id := d.u64()
	p := d.bytes()
	return Entry{ID: id, Payload: p}
}

// encodeEntries appends a u32 count followed by each entry — the multi-entry
// frame body shared by opRange responses, subscription stream frames and
// replicate requests.
func encodeEntries(e *enc, entries []Entry) {
	e.u32(uint32(len(entries)))
	for _, en := range entries {
		encodeEntry(e, en)
	}
}

// decodeEntries reads a u32-counted entry list. The count is sanity-checked
// against the bytes remaining (every entry costs at least 12 bytes) so a
// corrupt header cannot trigger a huge allocation.
func decodeEntries(d *buf) []Entry {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.pos < 12*n {
		d.fail()
		return nil
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodeEntry(d))
		if d.err != nil {
			return nil
		}
	}
	return out
}

// encodeLease/decodeLease carry a leader lease across the lease proxy ops
// (opLeaseHolder/Acquire/Renew); Expires travels as Unix nanoseconds.
func encodeLease(e *enc, l cluster.Lease) {
	e.str(l.Topic).str(l.Holder).u64(l.Epoch).u64(uint64(l.Expires.UnixNano()))
}

func decodeLease(d *buf) cluster.Lease {
	topic, holder := d.str(), d.str()
	epoch := d.u64()
	nanos := d.u64()
	return cluster.Lease{Topic: topic, Holder: holder, Epoch: epoch, Expires: time.Unix(0, int64(nanos))}
}

// encPool recycles payload builders across requests and responses so the
// steady-state hot path allocates nothing for framing. Builders that grew
// past maxPooledEnc are dropped rather than hoarded.
const maxPooledEnc = 64 << 10

var encPool = sync.Pool{New: func() any { return new(enc) }}

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	return e
}

func putEnc(e *enc) {
	if cap(e.b) > maxPooledEnc {
		return
	}
	encPool.Put(e)
}

// errPayload renders an error for a statusErr frame.
func errPayload(err error) []byte { return []byte(err.Error()) }

// remoteError reconstructs a server-side error, mapping the broker's
// sentinel errors back to their package-level values so errors.Is works
// across the wire. A not-leader redirect is decoded back into a
// *NotLeaderError so clients can follow the embedded leader address.
func remoteError(payload []byte) error {
	msg := string(payload)
	if nl := parseNotLeader(msg); nl != nil {
		return nl
	}
	for _, sentinel := range []error{ErrClosed, ErrNoSuchTopic, ErrEvicted, ErrEmptyPayload, ErrEpochFenced, ErrReplicaGap, ErrNoQuorum} {
		if msg == sentinel.Error() {
			return sentinel
		}
		if len(msg) > len(sentinel.Error()) && msg[:len(sentinel.Error())] == sentinel.Error() {
			return fmt.Errorf("%w%s", sentinel, msg[len(sentinel.Error()):])
		}
	}
	return errors.New(msg)
}
