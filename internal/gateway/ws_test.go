package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/stream"
)

// wsDial runs the client side of the RFC 6455 handshake over raw TCP and
// returns the open connection.
func wsDial(t *testing.T, addr, path string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	const key = "dGhlIHNhbXBsZSBub25jZQ==" // RFC 6455 §1.3 example key
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: gateway\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("handshake status %d, want 101", resp.StatusCode)
	}
	// The accept key for the RFC's sample nonce is the RFC's sample accept.
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("Sec-WebSocket-Accept = %q", got)
	}
	return conn, br
}

// wsClientWrite sends one masked client frame (clients MUST mask).
func wsClientWrite(t *testing.T, conn net.Conn, opcode byte, payload []byte) {
	t.Helper()
	if len(payload) >= 126 {
		t.Fatalf("test client only writes short frames, got %d bytes", len(payload))
	}
	mask := [4]byte{0x1a, 0x2b, 0x3c, 0x4d}
	frame := make([]byte, 0, 6+len(payload))
	frame = append(frame, 0x80|opcode, 0x80|byte(len(payload)))
	frame = append(frame, mask[:]...)
	for i, b := range payload {
		frame = append(frame, b^mask[i%4])
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// wsClientRead reads one unmasked server frame.
func wsClientRead(t *testing.T, br *bufio.Reader) (opcode byte, payload []byte) {
	t.Helper()
	var h [2]byte
	if _, err := readFull(br, h[:]); err != nil {
		t.Fatal(err)
	}
	opcode = h[0] & 0x0F
	length := uint64(h[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := readFull(br, ext[:]); err != nil {
			t.Fatal(err)
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := readFull(br, ext[:]); err != nil {
			t.Fatal(err)
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	payload = make([]byte, length)
	if _, err := readFull(br, payload); err != nil {
		t.Fatal(err)
	}
	return opcode, payload
}

func readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func newServedFixture(t *testing.T, cfg Config) (*fixture, string) {
	t.Helper()
	b := stream.NewBroker(0)
	backend := NewBusBackend(b)
	gw := New(backend, cfg)
	addr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Close()
		b.Close()
	})
	return &fixture{broker: b, backend: backend, gw: gw}, addr
}

func TestWebSocketSubscribe(t *testing.T) {
	f, addr := newServedFixture(t, Config{})
	f.publish(t, "m.cap", 3)

	conn, br := wsDial(t, addr, apiv1.SubscribePath("m.cap"))
	var ids []uint64
	for len(ids) < 3 {
		op, payload := wsClientRead(t, br)
		if op != wsOpText {
			t.Fatalf("opcode %#x, want text", op)
		}
		var fr apiv1.Frame
		if err := json.Unmarshal(payload, &fr); err != nil {
			t.Fatalf("bad frame %q: %v", payload, err)
		}
		if fr.Type != apiv1.FrameTuple {
			t.Fatalf("frame %+v", fr)
		}
		ids = append(ids, fr.Tuple.StreamID)
	}
	if ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids %v", ids)
	}
	conn.Close()
}

func TestWebSocketPingPong(t *testing.T) {
	f, addr := newServedFixture(t, Config{})
	f.publish(t, "m.cap", 1)

	conn, br := wsDial(t, addr, apiv1.SubscribePath("m.cap"))
	// Drain the queued tuple so the pong is the next frame we care about.
	if op, _ := wsClientRead(t, br); op != wsOpText {
		t.Fatalf("opcode %#x, want text", op)
	}
	wsClientWrite(t, conn, wsOpPing, []byte("heartbeat"))
	op, payload := wsClientRead(t, br)
	if op != wsOpPong || string(payload) != "heartbeat" {
		t.Fatalf("got opcode %#x payload %q, want pong echo", op, payload)
	}
}

func TestWebSocketCloseOnDrain(t *testing.T) {
	f, addr := newServedFixture(t, Config{})
	f.publish(t, "m.cap", 1)

	_, br := wsDial(t, addr, apiv1.SubscribePath("m.cap"))
	if op, _ := wsClientRead(t, br); op != wsOpText {
		t.Fatalf("opcode %#x, want text", op)
	}
	// Server drain: a goaway frame, then a 1001 close.
	done := make(chan error, 1)
	go func() { done <- f.gw.Shutdown(context.Background()) }()
	op, payload := wsClientRead(t, br)
	if op != wsOpText {
		t.Fatalf("opcode %#x, want goaway text frame", op)
	}
	var fr apiv1.Frame
	if err := json.Unmarshal(payload, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Type != apiv1.FrameGoaway {
		t.Fatalf("frame %+v, want goaway", fr)
	}
	op, payload = wsClientRead(t, br)
	if op != wsOpClose {
		t.Fatalf("opcode %#x, want close", op)
	}
	if status := binary.BigEndian.Uint16(payload[:2]); status != wsStatusGoingAway {
		t.Fatalf("close status %d, want %d", status, wsStatusGoingAway)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestWebSocketRejectsBadHandshake(t *testing.T) {
	f, addr := newServedFixture(t, Config{})
	f.publish(t, "m.cap", 1)

	// Upgrade header without a key: the gateway answers with a plain JSON
	// error instead of hijacking.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := "GET " + apiv1.SubscribePath("m.cap") + " HTTP/1.1\r\n" +
		"Host: gateway\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e apiv1.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != apiv1.CodeBadRequest {
		t.Fatalf("envelope %+v", e)
	}
}
