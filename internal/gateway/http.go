package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

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
	var req apiv1.QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
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
	bp := queryBufs.Get().(*[]byte)
	defer queryBufs.Put(bp)
	if *bp, err = resp.AppendJSON((*bp)[:0]); err != nil {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, false, "encoding response: %v", err))
		return
	}
	*bp = append(*bp, '\n')
	writeBody(w, *bp)
}

// queryBufs recycles the buffers query answers are encoded into.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

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
	for {
		f, more := sub.next(r.Context(), sub.final)
		if f != nil {
			if _, err := w.Write(f.sse); err != nil {
				return
			}
			fl.Flush()
		}
		if !more {
			return
		}
	}
}
