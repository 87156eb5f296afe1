package gateway

import (
	"bufio"
	"context"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	apiv1 "repro/api/v1"
)

// The gateway speaks RFC 6455 directly — a deliberately small server-side
// subset (unfragmented frames, text data, ping/pong/close control) so the
// public edge carries no third-party dependency. Each subscription frame is
// one JSON text message; the server closes with status 1008 on slow-consumer
// eviction and 1001 on graceful drain.

// wsGUID is the RFC 6455 §1.3 handshake constant.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsMaxClientFrame bounds client→server payloads (the subscribe stream is
// one-way; clients only send control frames).
const wsMaxClientFrame = 1 << 16

// WebSocket opcodes.
const (
	wsOpText  = 0x1
	wsOpClose = 0x8
	wsOpPing  = 0x9
	wsOpPong  = 0xA
)

// WebSocket close statuses.
const (
	wsStatusGoingAway       = 1001
	wsStatusPolicyViolation = 1008
)

// isWebSocketUpgrade reports whether r asks for a WebSocket upgrade.
func isWebSocketUpgrade(r *http.Request) bool {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		return false
	}
	for _, part := range strings.Split(r.Header.Get("Connection"), ",") {
		if strings.EqualFold(strings.TrimSpace(part), "upgrade") {
			return true
		}
	}
	return false
}

// wsAcceptKey computes the Sec-WebSocket-Accept response value.
func wsAcceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// serveWS upgrades the request and pumps subscription frames as JSON text
// messages until the subscription ends or the client goes away.
func (g *Gateway) serveWS(w http.ResponseWriter, r *http.Request, principal, metric string, afterID uint64) {
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" || r.Header.Get("Sec-WebSocket-Version") != "13" {
		writeError(w, apiv1.Errorf(apiv1.CodeBadRequest, false, "bad websocket handshake"))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, false, "response writer cannot hijack"))
		return
	}
	// Attach before hijacking so a refused subscription is still a clean
	// JSON error response.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := g.Attach(ctx, principal, metric, afterID)
	if err != nil {
		writeError(w, apiError(err))
		return
	}
	defer sub.Close()
	conn, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		return
	}
	if err := brw.Flush(); err != nil {
		return
	}

	wc := &wsConn{conn: conn}
	// Reader: answers pings, detects client close/disconnect, cancels the
	// writer.
	go func() {
		defer cancel()
		wc.readLoop(brw.Reader)
	}()

	var buf []byte
	for {
		f, more := sub.next(ctx, sub.final)
		if f != nil {
			buf = appendWS(buf[:0], f)
			if err := wc.write(buf); err != nil {
				return
			}
		}
		if !more {
			status, reason := wsStatusGoingAway, ""
			if f != nil {
				reason = string(f.fin.Type)
				if f.fin.Type == apiv1.FrameError {
					status = wsStatusPolicyViolation
				}
			}
			wc.writeClose(status, reason)
			return
		}
	}
}

// wsConn serializes writes to one upgraded connection (the frame pump and
// the reader's pong replies share it).
type wsConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// appendWSFrame appends one unmasked, unfragmented server frame to buf.
func appendWSFrame(buf []byte, opcode byte, payload []byte) []byte {
	buf = append(buf, 0x80|opcode) // FIN set: no fragmentation
	switch {
	case len(payload) < 126:
		buf = append(buf, byte(len(payload)))
	case len(payload) <= 0xFFFF:
		buf = append(buf, 126)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(payload)))
	default:
		buf = append(buf, 127)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	}
	return append(buf, payload...)
}

// appendWS appends f as one complete text frame, header and body.
func appendWS(dst []byte, f *frame) []byte { return appendWSFrame(dst, wsOpText, f.body) }

// write sends one complete frame with a single Write: one syscall and one
// segment on the TCP_NODELAY socket, and one wake-up of the reader.
func (c *wsConn) write(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.conn.Write(frame)
	return err
}

// writeFrame composes and writes one control frame.
func (c *wsConn) writeFrame(opcode byte, payload []byte) error {
	return c.write(appendWSFrame(nil, opcode, payload))
}

// writeClose sends a close frame with status and reason (best effort).
func (c *wsConn) writeClose(status int, reason string) {
	c.writeFrame(wsOpClose, append(binary.BigEndian.AppendUint16(nil, uint16(status)), reason...))
}

// readLoop consumes client frames: pings are answered, a close frame (or
// any read error, including disconnect) ends the loop. Data frames on this
// one-way stream are discarded.
func (c *wsConn) readLoop(r *bufio.Reader) {
	for {
		opcode, payload, err := wsReadFrame(r)
		if err != nil {
			return
		}
		switch opcode {
		case wsOpClose:
			c.writeFrame(wsOpClose, payload) // echo status, RFC 6455 §5.5.1
			return
		case wsOpPing:
			if c.writeFrame(wsOpPong, payload) != nil {
				return
			}
		}
	}
}

// wsReadFrame reads one client frame. Client frames must be masked
// (RFC 6455 §5.1) and unfragmented.
func wsReadFrame(r *bufio.Reader) (opcode byte, payload []byte, err error) {
	var h [2]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, err
	}
	if h[0]&0x80 == 0 {
		return 0, nil, errors.New("gateway: fragmented websocket frames unsupported")
	}
	opcode = h[0] & 0x0F
	masked := h[1]&0x80 != 0
	length := uint64(h[1] & 0x7F)
	if length >= 126 { // an extended length follows: 16 bits for 126, 64 for 127
		var ext [8]byte
		n := 2
		if length == 127 {
			n = 8
		}
		if _, err := io.ReadFull(r, ext[8-n:]); err != nil {
			return 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if !masked {
		return 0, nil, errors.New("gateway: client frames must be masked")
	}
	if length > wsMaxClientFrame {
		return 0, nil, fmt.Errorf("gateway: client frame of %d bytes exceeds %d", length, wsMaxClientFrame)
	}
	var mask [4]byte
	if _, err := io.ReadFull(r, mask[:]); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	for i := range payload {
		payload[i] ^= mask[i%4]
	}
	return opcode, payload, nil
}
