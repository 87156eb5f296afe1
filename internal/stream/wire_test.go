package stream

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(op byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, op, payload); err != nil {
			return false
		}
		gotOp, gotPayload, err := readFrame(&buf)
		if err != nil || gotOp != op {
			return false
		}
		return bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, make([]byte, maxFrame+1)); err != errFrameTooLarge {
		t.Fatalf("err=%v", err)
	}
	// A corrupted header announcing an oversized frame is rejected on read.
	buf.Reset()
	buf.Write([]byte{1, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf); err != errFrameTooLarge {
		t.Fatalf("read err=%v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, 7, []byte("hello"))
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		if _, _, err := readFrame(r); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := (&enc{}).u16(7).u32(1 << 20).u64(1 << 40).str("topic").bytes([]byte{1, 2, 3})
	d := &buf{b: e.b}
	if d.u16() != 7 || d.u32() != 1<<20 || d.u64() != 1<<40 || d.str() != "topic" {
		t.Fatal("scalar decode mismatch")
	}
	if got := d.bytes(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("bytes=%v", got)
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	// Reading past the end sets err instead of panicking.
	if d.u64() != 0 || d.err == nil {
		t.Fatal("overread not detected")
	}
}

func TestBufTruncatedFields(t *testing.T) {
	cases := [][]byte{
		{},           // u16 of nothing
		{5, 0},       // str length 5 with no body
		{1, 0, 0, 0}, // bytes length 1<<... truncated header
	}
	for i, b := range cases {
		d := &buf{b: b}
		switch i {
		case 0:
			d.u16()
		case 1:
			d.str()
		case 2:
			d.bytes()
		}
		if d.err == nil {
			t.Fatalf("case %d: no error", i)
		}
	}
}

func TestRemoteErrorMapsSentinels(t *testing.T) {
	for _, sentinel := range []error{ErrClosed, ErrNoSuchTopic, ErrEvicted, ErrEmptyPayload} {
		got := remoteError(errPayload(sentinel))
		if !errors.Is(got, sentinel) {
			t.Fatalf("sentinel %v not mapped, got %v", sentinel, got)
		}
	}
	// Wrapped form keeps the suffix.
	wrapped := remoteError([]byte(ErrNoSuchTopic.Error() + `: "ghost"`))
	if !errors.Is(wrapped, ErrNoSuchTopic) || !strings.Contains(wrapped.Error(), "ghost") {
		t.Fatalf("wrapped=%v", wrapped)
	}
	// Unknown errors pass through as opaque.
	if got := remoteError([]byte("boom")); got.Error() != "boom" {
		t.Fatalf("opaque=%v", got)
	}
}

// Property: the broker's Range always returns dense, ordered IDs matching
// what was published, for any publish count and query window.
func TestBrokerRangeQuick(t *testing.T) {
	f := func(n uint8, fromRaw, toRaw uint8) bool {
		b := NewBroker(256)
		total := int(n%64) + 1
		for i := 0; i < total; i++ {
			if _, err := b.Publish(context.Background(), "t", []byte{byte(i)}); err != nil {
				return false
			}
		}
		from := uint64(fromRaw%64) + 1
		to := uint64(toRaw%64) + 1
		if from > to {
			from, to = to, from
		}
		es, err := b.Range(context.Background(), "t", from, to, 0)
		if err != nil {
			return false
		}
		wantLen := 0
		hi := to
		if hi > uint64(total) {
			hi = uint64(total)
		}
		if from <= hi {
			wantLen = int(hi - from + 1)
		}
		if len(es) != wantLen {
			return false
		}
		for i, e := range es {
			if e.ID != from+uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// expectRefused sends one request frame and requires a statusErr answer
// containing want, then a Ping answered OK on the same connection.
func expectRefused(t *testing.T, conn net.Conn, op byte, payload []byte, want string) {
	t.Helper()
	if err := writeFrame(conn, op, payload); err != nil {
		t.Fatal(err)
	}
	status, resp, err := readFrame(conn)
	if err != nil || status != statusErr || !strings.Contains(string(resp), want) {
		t.Fatalf("op %#x: status=%d resp=%q err=%v, want a %q error", op, status, resp, err, want)
	}
	if err := writeFrame(conn, opPing, nil); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readFrame(conn); err != nil || status != statusOK {
		t.Fatalf("ping after op %#x: status=%d err=%v", op, status, err)
	}
}

// TestRefusedFrames: the retired singular publish (0x01) and consume (0x04)
// opcodes are answered with an "unknown opcode" error, a publish whose count
// exceeds what its frame can hold with "truncated frame" before anything is
// allocated for it, and the connection lives on.
func TestRefusedFrames(t *testing.T) {
	_, s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	expectRefused(t, conn, 0x01, (&enc{}).str("t").bytes([]byte("x")).b, "unknown opcode")
	expectRefused(t, conn, 0x04, (&enc{}).str("t").u64(0).b, "unknown opcode")
	expectRefused(t, conn, opPublishBatch, (&enc{}).str("t").u32(1<<31).b, "truncated frame")
}

// TestRetiredOpsAreRefused: the consumer-group opcodes (0x06 create, 0x07
// read, 0x08 ack) and the batched consume (0x0C) carry the frames an old
// client would send and get the "unknown opcode" error; 0x07 and 0x0C used to
// park on an empty topic, so their refusal must not.
func TestRetiredOpsAreRefused(t *testing.T) {
	_, s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	expectRefused(t, conn, 0x06, (&enc{}).str("t").str("g").u64(0).b, "unknown opcode")
	expectRefused(t, conn, 0x07, (&enc{}).str("t").str("g").b, "unknown opcode")
	expectRefused(t, conn, 0x08, (&enc{}).str("t").str("g").u64(1).b, "unknown opcode")
	expectRefused(t, conn, 0x0C, (&enc{}).str("t").u64(0).u32(0).b, "unknown opcode")
}
