package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	apiv1 "repro/api/v1"
	"repro/internal/aqe"
)

// writeJSON writes v as the 200 response body. The body is encoded before
// the header goes out, so a value JSON cannot carry (a NaN reading) is a 500
// in the error envelope, not a 200 with half a body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, false, "encoding response: %v", err))
		return
	}
	writeBody(w, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body) // a client that went away is not the handler's to report
}

// writeError writes the api/v1 error envelope with its mapped status.
func writeError(w http.ResponseWriter, e *apiv1.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code.HTTPStatus())
	json.NewEncoder(w).Encode(e)
}

// apiError classifies err onto the public contract.
func apiError(err error) *apiv1.Error {
	var ae *apiv1.Error
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, aqe.ErrNoSuchTable):
		return apiv1.Errorf(apiv1.CodeNoSuchMetric, false, "%v", err)
	case errors.Is(err, ErrUnavailable):
		return apiv1.Errorf(apiv1.CodeUnavailable, true, "%v", err)
	case strings.HasPrefix(err.Error(), "aqe:"): // the AQE front end: user input, not server fault
		return apiv1.Errorf(apiv1.CodeBadRequest, false, "%v", err)
	default:
		return apiv1.Errorf(apiv1.CodeInternal, false, "%v", err)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := apiv1.HealthResponse{Status: "ok"}
	if g.backend.Degraded() {
		resp.Status = "degraded"
		resp.Degraded = true
	}
	if g.isDraining() {
		resp.Status = "draining"
	}
	writeJSON(w, resp)
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.isDraining() {
		writeError(w, apiv1.Errorf(apiv1.CodeDraining, true, "gateway draining"))
		return
	}
	writeJSON(w, apiv1.HealthResponse{Status: "ok", Degraded: g.backend.Degraded()})
}

// handleQuery serves POST /api/v1/query. Every principal rides the same
// prepared-plan cache: plans are immutable and the LRU is shared, so one
// principal's prepare is every principal's hit.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request, principal string) {
	bp := queryBufs.Get().(*[]byte)
	defer queryBufs.Put(bp)
	req, err := readQuery(w, r.Body, bp)
	if err != nil {
		writeError(w, apiv1.Errorf(apiv1.CodeBadRequest, false, "bad request body: %v", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, apiv1.Errorf(apiv1.CodeBadRequest, false, "empty query"))
		return
	}
	res, err := g.backend.Query(req.Query)
	if err != nil {
		writeError(w, apiError(err))
		return
	}
	resp := queryResponse(res)
	if *bp, err = resp.AppendJSON((*bp)[:0]); err != nil {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, false, "encoding response: %v", err))
		return
	}
	*bp = append(*bp, '\n')
	writeBody(w, *bp)
}

// queryBufs recycles the buffers query requests are read and answers
// encoded into.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

// readQuery reads a QueryRequest from body into *buf by the rules
// json.Decoder.Decode applies with DisallowUnknownFields: a body capped at
// 1 MiB whose first JSON value is a bare null or an object whose one key,
// matched without regard to case, is "query", a string or null, the last
// duplicate winning. Whatever follows that value is ignored. On error the
// request is not to be used.
func readQuery(w http.ResponseWriter, body io.ReadCloser, buf *[]byte) (req apiv1.QueryRequest, err error) {
	r := http.MaxBytesReader(w, body, 1<<20)
	b := (*buf)[:0]
	var rerr error
	for rerr == nil {
		b = slices.Grow(b, 512)
		var n int
		n, rerr = r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	*buf = b
	if rerr == io.EOF {
		rerr = nil
	}
	if err = decodeQuery(b, rerr == nil, &req); err != nil && rerr != nil {
		err = rerr // the value was cut short by the cap or the connection
	}
	return req, err
}

var errQuerySyntax = errors.New("malformed JSON")

// decodeQuery decodes the first JSON value of b into req; whole says b is
// the entire body, so that a bare null may end where b does.
func decodeQuery(b []byte, whole bool, req *apiv1.QueryRequest) error {
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], []byte("null")) && (i+4 < len(b) || whole) {
		return nil // Decode ends a literal at any next byte
	}
	if i == len(b) || b[i] != '{' {
		return errors.New("the body is not a JSON object")
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		key, j, err := decodeString(b, i)
		if err != nil {
			return err
		}
		if !bytes.EqualFold(key, []byte("query")) {
			return fmt.Errorf("unknown field %q", key)
		}
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return errQuerySyntax
		}
		if i = skipSpace(b, i+1); bytes.HasPrefix(b[i:], []byte("null")) {
			i += 4
		} else {
			v, j, err := decodeString(b, i)
			if err != nil {
				return err
			}
			req.Query, i = string(v), j
		}
		if i = skipSpace(b, i); i == len(b) {
			return errQuerySyntax
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return nil
		default:
			return errQuerySyntax
		}
	}
}

// decodeString decodes the JSON string at b[i:] and returns its value and
// the index past it. A string with escapes or non-UTF-8 bytes is handed to
// encoding/json, whose unquoting rules it must follow.
func decodeString(b []byte, i int) ([]byte, int, error) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, errors.New("a value is not a JSON string")
	}
	escaped := false
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if s := b[i+1 : j]; !escaped && utf8.Valid(s) {
				return s, j + 1, nil
			}
			var s string
			if err := json.Unmarshal(b[i:j+1], &s); err != nil {
				return nil, 0, err
			}
			return []byte(s), j + 1, nil
		case c == '\\':
			escaped = true
			j++ // the escaped byte does not end the string
		case c < ' ':
			return nil, 0, errQuerySyntax
		}
	}
	return nil, 0, errQuerySyntax
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// queryResponse renders an AQE result on the public contract.
func queryResponse(res *aqe.Result) apiv1.QueryResponse {
	out := apiv1.QueryResponse{Columns: res.Columns, Rows: make([][]apiv1.Value, len(res.Rows))}
	for i, row := range res.Rows {
		cells := make([]apiv1.Value, len(row))
		for j, c := range row {
			switch c.Kind {
			case aqe.CellInt:
				cells[j] = apiv1.IntValue(c.Int)
			case aqe.CellFloat:
				cells[j] = apiv1.FloatValue(c.F)
			default:
				cells[j] = apiv1.StringValue(c.Str)
			}
		}
		out.Rows[i] = cells
	}
	return out
}

func (g *Gateway) handleTopics(w http.ResponseWriter, r *http.Request, principal string) {
	topics, err := g.backend.Topics(r.Context())
	if err != nil {
		writeError(w, apiError(err))
		return
	}
	writeJSON(w, apiv1.TopicsResponse{Topics: topics})
}

func (g *Gateway) handleLatest(w http.ResponseWriter, r *http.Request, principal string) {
	metric := r.PathValue("metric")
	in, ok := g.backend.Latest(metric)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeNoSuchMetric, false, "no data for %q", metric))
		return
	}
	writeJSON(w, tupleFromInfo(in, 0))
}

func (g *Gateway) handleRetention(w http.ResponseWriter, r *http.Request, principal string) {
	metrics, err := g.backend.Retention()
	if err != nil {
		writeError(w, apiError(err))
		return
	}
	writeJSON(w, apiv1.RetentionResponse{Metrics: metrics})
}

// handleSubscribe serves GET /api/v1/subscribe/{metric}: a WebSocket when
// the request asks for an upgrade, SSE otherwise. ?after=N resumes after
// stream ID N (SSE clients may use the standard Last-Event-ID header).
func (g *Gateway) handleSubscribe(w http.ResponseWriter, r *http.Request, principal string) {
	metric := r.PathValue("metric")
	afterID, err := resumePoint(r)
	if err != nil {
		writeError(w, apiv1.Errorf(apiv1.CodeBadRequest, false, "%v", err))
		return
	}
	if isWebSocketUpgrade(r) {
		g.serveWS(w, r, principal, metric, afterID)
		return
	}
	g.serveSSE(w, r, principal, metric, afterID)
}

// resumePoint reads the resume cursor from ?after= or Last-Event-ID.
func resumePoint(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("after")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume id %q", raw)
	}
	return id, nil
}

// serveSSE streams frames as Server-Sent Events: tuple frames carry their
// stream ID in the SSE id field, so EventSource reconnection resumes
// losslessly via Last-Event-ID.
func (g *Gateway) serveSSE(w http.ResponseWriter, r *http.Request, principal, metric string, afterID uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, false, "response writer cannot stream"))
		return
	}
	sub, err := g.Attach(r.Context(), principal, metric, afterID)
	if err != nil {
		writeError(w, apiError(err))
		return
	}
	defer sub.Close()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	var buf []byte
	for {
		f, more := sub.next(r.Context(), sub.final)
		if f != nil {
			buf = appendSSE(buf[:0], f)
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		}
		if !more {
			return
		}
	}
}

// appendSSE appends f as one event: the id line (tuple frames only), then
// the body as its data.
func appendSSE(dst []byte, f *frame) []byte {
	if f.fin == nil {
		dst = append(strconv.AppendUint(append(dst, "id: "...), f.id, 10), '\n')
	}
	return append(append(append(dst, "data: "...), f.body...), "\n\n"...)
}
