package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/telemetry"
)

// Socket subscribers speak the api/v1 subscribe contract over a raw
// net.Conn with one fixed 4 KB buffer: they are passive readers whose own
// cost must stay small beside the gateway's, so most frames are only checked
// for stream-id contiguity and one in decodeEvery is decoded in full.

const sockBuf = 4096

var (
	sseID     = []byte("id: ")
	sseData   = []byte("data: ")
	streamKey = []byte(`"stream_id":`)
)

// subscribeSocket attaches s to the gateway at addr over SSE or WebSocket
// (s.transport) and starts its reader.
func subscribeSocket(addr, token string, s *subscriber) error {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	req := "GET " + apiv1.SubscribePath(s.topic) + " HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer " + token + "\r\n"
	want := "200"
	if s.transport == "ws" {
		// The accept key is not checked: this reader trusts its own server.
		req += "Upgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Version: 13\r\nSec-WebSocket-Key: YmVuY2gtYmVuY2gtYmVuYw==\r\n"
		want = "101"
	} else {
		req += "Accept: text/event-stream\r\n"
	}
	if _, err := conn.Write([]byte(req + "\r\n")); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, sockBuf)
	status, err := br.ReadSlice('\n')
	if err != nil || !strings.Contains(string(status), " "+want+" ") {
		conn.Close()
		return fmt.Errorf("subscribe %s over %s: status %q: %v", s.topic, s.transport, status, err)
	}
	for { // headers
		line, err := br.ReadSlice('\n')
		if err != nil {
			conn.Close()
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
	}
	s.attach = time.Since(start)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() { // closing the connection is what ends the blocked read
		<-ctx.Done()
		conn.Close()
	}()
	go func() {
		defer close(s.done)
		defer cancel()
		if s.transport == "ws" {
			s.readWS(br)
		} else {
			s.readSSE(br)
		}
	}()
	return nil
}

// readSSE walks the chunked event stream line by line; chunk framing lines
// are neither "id: " nor "data: " and fall through.
func (s *subscriber) readSSE(br *bufio.Reader) {
	var id uint64
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		switch {
		case bytes.HasPrefix(line, sseID):
			id, _ = strconv.ParseUint(string(bytes.TrimSpace(line[len(sseID):])), 10, 64)
		case bytes.HasPrefix(line, sseData):
			if !s.frame(id, bytes.TrimSpace(line[len(sseData):])) {
				return
			}
			id = 0
		}
	}
}

// readWS reads unmasked, unfragmented server frames.
func (s *subscriber) readWS(br *bufio.Reader) {
	for {
		h, err := br.Peek(2)
		if err != nil {
			return
		}
		opcode, n, skip := h[0]&0x0F, int(h[1]&0x7F), 2
		switch n {
		case 126:
			ext, err := br.Peek(4)
			if err != nil {
				return
			}
			n, skip = int(binary.BigEndian.Uint16(ext[2:4])), 4
		case 127:
			return // a frame that large is not a tuple
		}
		if _, err := br.Discard(skip); err != nil || n > sockBuf {
			return
		}
		payload, err := br.Peek(n)
		if err != nil {
			return
		}
		if opcode == 0x8 { // close
			return
		}
		if opcode == 0x1 {
			id := uint64(0)
			if i := bytes.Index(payload, streamKey); i >= 0 {
				j := i + len(streamKey)
				k := j
				for k < len(payload) && payload[k] >= '0' && payload[k] <= '9' {
					k++
				}
				id, _ = strconv.ParseUint(string(payload[j:k]), 10, 64)
			}
			if !s.frame(id, payload) {
				return
			}
		}
		if _, err := br.Discard(n); err != nil {
			return
		}
	}
}

// frame accounts one JSON frame; false ends the subscription (terminal
// frame). id 0 means the frame carried no stream id, i.e. is not a tuple.
func (s *subscriber) frame(id uint64, body []byte) bool {
	if id == 0 || (s.decodeEvery > 1 && id%uint64(s.decodeEvery) != 0) {
		if id == 0 {
			return s.terminal(body)
		}
		s.skipped(id)
		return true
	}
	now := time.Now().UnixNano()
	var f apiv1.Frame
	if err := json.Unmarshal(body, &f); err != nil || f.Type != apiv1.FrameTuple || f.Tuple == nil ||
		f.Tuple.Metric != s.topic || f.Tuple.StreamID != id {
		s.bad++
		s.skipped(id)
		return true
	}
	in := telemetry.Info{Metric: telemetry.MetricID(f.Tuple.Metric), Timestamp: f.Tuple.TimestampNS, Value: f.Tuple.Value}
	if f.Tuple.Source == telemetry.Predicted.String() {
		in.Source = telemetry.Predicted
	}
	s.observe(id, in, now)
	return true
}

// terminal handles a frame without a stream id: an eviction notice or a
// goaway.
func (s *subscriber) terminal(body []byte) bool {
	var f apiv1.Frame
	if err := json.Unmarshal(body, &f); err != nil {
		s.bad++
		return true
	}
	if f.Type == apiv1.FrameError {
		s.evicted = true
	}
	return f.Type == apiv1.FrameTuple
}
