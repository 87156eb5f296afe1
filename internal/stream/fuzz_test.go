package stream

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the wire-frame reader. It must never
// panic, must refuse frames beyond the 16 MiB cap before allocating, and any
// frame it accepts must survive a write/read round trip — read a second time
// into a reused buffer, the way a server connection reads, it must come out
// the same.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	_ = writeFrame(&ok, opPublishBatch, (&enc{}).str("topic").u32(1).bytes([]byte("payload")).b)
	f.Add(ok.Bytes())
	f.Add([]byte{})
	f.Add([]byte{opPing, 0, 0, 0, 0})
	f.Add([]byte{opRange, 0xFF, 0xFF, 0xFF, 0xFF}) // length 4 GiB-1: over the cap
	f.Add(ok.Bytes()[:3])                          // torn header

	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("readFrame accepted %d-byte payload over the %d cap", len(payload), maxFrame)
		}
		if len(data) >= frameOverhead {
			if n := binary.LittleEndian.Uint32(data[1:5]); int(n) != len(payload) {
				t.Fatalf("header says %d bytes, got %d", n, len(payload))
			}
		}
		var out bytes.Buffer
		if err := writeFrame(&out, op, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		op2, payload2, err := readFrame(bytes.NewReader(out.Bytes()))
		if err != nil || op2 != op || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip failed: err=%v op %d->%d", err, op, op2)
		}
		// The reused-buffer path: the frame twice over through one scratch
		// buffer that starts too small for it and is then large enough.
		twice := bytes.NewReader(bytes.Repeat(out.Bytes(), 2))
		scratch := make([]byte, 0, len(payload)/2)
		for pass := 0; pass < 2; pass++ {
			op3, n, err := readHeader(twice)
			if err != nil || op3 != op || n != len(payload) {
				t.Fatalf("pass %d: header op=%d n=%d err=%v, want op=%d n=%d", pass, op3, n, err, op, len(payload))
			}
			if scratch, err = readPayload(twice, scratch, n); err != nil || !bytes.Equal(scratch, payload) {
				t.Fatalf("pass %d: payload through the reused buffer differs (err=%v)", pass, err)
			}
		}
	})
}

// FuzzDecodeEntries feeds arbitrary payloads to the batched entry decoder.
// The count header is attacker-controlled, so the decoder must neither panic
// nor allocate unboundedly; anything it accepts must re-encode canonically.
func FuzzDecodeEntries(f *testing.F) {
	e := &enc{}
	encodeEntries(e, []Entry{{ID: 1, Payload: []byte("a")}, {ID: 2, Payload: nil}})
	f.Add(e.b)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // huge count, no bytes behind it
	f.Add(e.b[:len(e.b)-1])               // torn final entry

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &buf{b: data}
		entries := decodeEntries(d)
		if d.err != nil {
			if entries != nil {
				t.Fatalf("decodeEntries returned %d entries alongside error %v", len(entries), d.err)
			}
			return
		}
		// Every decoded entry costs at least 12 payload bytes, so an accepted
		// count can never exceed the input size.
		if len(entries)*12 > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(entries), len(data))
		}
		re := &enc{}
		encodeEntries(re, entries)
		if !bytes.Equal(re.b, data[:d.pos]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:d.pos], re.b)
		}
	})
}
