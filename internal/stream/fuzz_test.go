package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/telemetry"
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

// FuzzChunkSeal publishes a payload sequence the input scripts — telemetry
// tuples of two metrics, measured or predicted, some carrying a trailing
// byte, a damaged CRC, a Kind past the two the product uses or a Source past
// the one bit a block frame has for it; fresh bytes from 1 B to past 64 KiB,
// exact repeats, one-byte edits, one-byte length changes — seals every chunk
// of the log, the tail too, and requires each ID to read back the bytes
// published, one at a time through Range and all together through a cursor,
// with no chunk grown by sealing and the log_bytes count still the chunks'
// sum. Its seeds, under testdata/fuzz, are a run of fresh bytes and edits of
// them, a run whose length keeps changing, payloads past 64 KiB between
// small ones, a steady series of tuples, tuples of two metrics with
// unsealable ones among them, Delphi's fill (one measured tuple, three
// predicted), and that fill across two metrics and both kinds with
// unsealable sources among it.
func FuzzChunkSeal(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		b := NewBroker(1 << 20)
		defer b.Close()
		ctx := context.Background()
		in := telemetry.NewFact("", 1_700_000_000_000_000_000, 1000)
		var want [][]byte
		for s, total := script, 0; len(s) >= 2 && len(want) < 256 && total < 1<<20; s = s[2:] {
			op, arg := s[0], int(s[1])
			var p []byte
			switch prev := want[max(len(want)-1, 0):]; {
			case op%8 >= 4: // a tuple
				in.Metric = []telemetry.MetricID{"fuzz.a", "fuzz.b"}[op>>3&1]
				in.Timestamp += int64(arg-64) * 1_000_000
				in.Value += float64(arg-128) / 16
				in.Kind, in.Source = telemetry.Kind(op>>4&1), telemetry.Source(op>>5&1)
				if op%8 == 7 {
					in.Kind += telemetry.Kind(arg & 0x30)       // a kind no product tuple has
					in.Source += telemetry.Source(arg >> 6 & 2) // a source no frame holds
				}
				p, _ = in.MarshalBinary()
				if op%8 == 6 && arg%3 == 0 {
					p = append(p, byte(arg)) // a trailing byte
				} else if op%8 == 6 && arg%3 == 1 {
					p[len(p)-1-arg%4] ^= 1 // a damaged CRC
				}
			case op%8 == 0 || len(prev) == 0: // fresh bytes: arg+1 of them, or past 64 KiB
				p = make([]byte, arg+1)
				if op >= 0xF0 {
					p = make([]byte, 1<<16+arg<<8)
				}
				for i := range p {
					p[i] = script[(i+arg)%len(script)] ^ byte(i>>8)
				}
			case op%8 == 1: // a repeat
				p = prev[0]
			case op%8 == 2: // one byte changed
				p = bytes.Clone(prev[0])
				p[arg%len(p)] ^= op | 1
			case op%8 == 3: // one byte longer or shorter
				p = append(bytes.Clone(prev[0]), op)
				if arg%2 == 1 && len(prev[0]) > 1 {
					p = p[:len(p)-2]
				}
			}
			want, total = append(want, p), total+len(p)
		}
		if len(want) == 0 {
			return
		}
		if _, err := b.PublishBatch(ctx, "f", want); err != nil {
			t.Fatal(err)
		}
		tp, _ := b.topicFor("f", false)
		tp.mu.Lock()
		held := 0
		for i := range tp.chunks {
			raw := tp.chunks[i].bytes()
			tp.sealLocked(i, b)
			if sealed := tp.chunks[i].bytes(); sealed > raw {
				t.Fatalf("chunk %d: sealed to %d bytes from %d", i, sealed, raw)
			}
			held += tp.chunks[i].bytes()
		}
		tp.mu.Unlock()
		if got := b.logBytes.Load(); got != int64(held) {
			t.Fatalf("log_bytes = %d, the chunks hold %d", got, held)
		}

		if e, err := b.Latest(ctx, "f"); err != nil || !bytes.Equal(e.Payload, want[len(want)-1]) {
			t.Fatalf("Latest: %d bytes, %v; want the %d bytes published last", len(e.Payload), err, len(want[len(want)-1]))
		}
		for i, p := range want {
			id := uint64(i + 1)
			es, err := b.Range(ctx, "f", id, id, 1)
			if err != nil || len(es) != 1 || es[0].ID != id || !bytes.Equal(es[0].Payload, p) {
				t.Fatalf("Range(%d): %d entries, %v; want the %d bytes published", id, len(es), err, len(p))
			}
		}
		cur, err := b.Follow(ctx, "f", 0)
		if err != nil {
			t.Fatal(err)
		}
		for next := uint64(1); next <= uint64(len(want)); {
			run, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range run {
				if e.ID != next || !bytes.Equal(e.Payload, want[next-1]) {
					t.Fatalf("cursor: entry %d, want %d with the bytes published", e.ID, next)
				}
				next++
			}
		}
	})
}
