package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// fixture is a gateway over an in-process broker with a few published
// tuples.
type fixture struct {
	broker   *stream.Broker
	backend  *BusBackend
	planHits *obs.Counter // the backend engine's aqe_plan_cache_hits_total
	gw       *Gateway
	srv      *httptest.Server
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	b := stream.NewBroker(0)
	backend := NewBusBackend(b)
	engineObs := obs.NewRegistry()
	backend.engine.Instrument(engineObs)
	gw := New(backend, cfg)
	srv := httptest.NewServer(gw.mux)
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
		b.Close()
	})
	return &fixture{broker: b, backend: backend, planHits: engineObs.Counter("aqe_plan_cache_hits_total"), gw: gw, srv: srv}
}

func (f *fixture) publish(t *testing.T, metric string, n int) {
	t.Helper()
	base := time.Unix(1700000000, 0).UnixNano()
	for i := 0; i < n; i++ {
		in := telemetry.NewFact(telemetry.MetricID(metric), base+int64(i)*int64(time.Second), float64(i))
		p, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.broker.Publish(context.Background(), metric, p); err != nil {
			t.Fatal(err)
		}
	}
}

func (f *fixture) do(t *testing.T, method, path, token, body string) (*http.Response, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if body != "" {
		req, err = http.NewRequest(method, f.srv.URL+path, strings.NewReader(body))
	} else {
		req, err = http.NewRequest(method, f.srv.URL+path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteString("\n")
	}
	return resp, []byte(buf.String())
}

func decodeErr(t *testing.T, body []byte) *apiv1.Error {
	t.Helper()
	var e apiv1.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not an error envelope: %v (%s)", err, body)
	}
	return &e
}

func TestAuth(t *testing.T) {
	f := newFixture(t, Config{Tokens: map[string]string{"s3cret": "alice"}})
	f.publish(t, "m.cap", 3)

	// No token: 401 with the contract envelope.
	resp, body := f.do(t, "GET", apiv1.PathTopics, "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status %d, want 401", resp.StatusCode)
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeUnauthorized || e.Retryable {
		t.Fatalf("envelope %+v", e)
	}

	// Wrong token: same.
	resp, _ = f.do(t, "GET", apiv1.PathTopics, "nope", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status %d, want 401", resp.StatusCode)
	}

	// Good token.
	resp, body = f.do(t, "GET", apiv1.PathTopics, "s3cret", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, body)
	}
	var topics apiv1.TopicsResponse
	if err := json.Unmarshal(body, &topics); err != nil {
		t.Fatal(err)
	}
	if len(topics.Topics) != 1 || topics.Topics[0] != "m.cap" {
		t.Fatalf("topics %+v", topics)
	}

	// Probes stay open.
	resp, _ = f.do(t, "GET", apiv1.PathHealthz, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 10)

	resp, body := f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT MAX(Value) FROM m.cap"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr apiv1.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// 9.0 rides the wire as the native scalar 9.
	if len(qr.Rows) != 1 || qr.Rows[0][0].String() != "9" {
		t.Fatalf("rows %+v", qr.Rows)
	}

	// Repeat query from "another principal" hits the shared plan cache.
	f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT MAX(Value) FROM m.cap"}`)
	hits := f.planHits.Value()
	if hits < 1 {
		t.Fatalf("expected shared plan-cache hit, got %d", hits)
	}

	// Bad SQL is a bad_request, not an internal error.
	resp, body = f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELEC nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeBadRequest {
		t.Fatalf("envelope %+v", e)
	}

	// Unknown wire fields are rejected: the contract is closed.
	resp, _ = f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT MAX(Value) FROM m.cap","warp":9}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: status %d", resp.StatusCode)
	}
}

// FuzzQueryRequestDecode: the hand decoder of POST /api/v1/query bodies
// agrees with the json.Decoder call it replaced — DisallowUnknownFields over
// a 1 MiB MaxBytesReader, one Decode — on accept or reject and on the
// decoded query, for any body.
func FuzzQueryRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"query":"SELECT MAX(Value) FROM m.cap"}`, `{}`, ` {"query" : "a" } `, `{"warp":9}`,
		`{"query":"a","warp":9}`, `{"QUERY":"a"}`, `{"Query":"a","query":"b"}`, `{"query":"a","query":null}`,
		`{"query":null}`, `null`, `null `, "null\t{", `nullx`, `nul`, `{"query":"a"} trailing`, `{"query":"a"}{`,
		`""`, `[]`, `5`, `true`, `{"query":5}`, `{"query":"a",}`, `{"query":"a"`, `{"query" "a"}`, ``, ` `,
		`{"\u0071uery":"\u00e9\ud800x\ud83d\ude00"}`, "{\"query\":\"\xff\xfe\"}", `{"query":"\x"}`,
		"{\"query\":\"tab\there\"}", `{"query":"\u12"}`, `{"qu\"ery":"a"}`, `{"query":"é✓"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(agreeOnQueryBody)
}

// TestQueryRequestCap: bodies at and past the 1 MiB cap, too large to fuzz
// from, are decided as json.Decoder decided them.
func TestQueryRequestCap(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20)
	for _, body := range []string{`{"query":"x"}` + pad, `{"query":"` + strings.Repeat("a", 1<<20) + `"}`,
		pad[:1<<20-4] + "null", pad[:1<<20-4] + "null ", pad[:1<<20-3] + "null", "null" + pad} {
		agreeOnQueryBody(t, []byte(body))
	}
}

func agreeOnQueryBody(t *testing.T, body []byte) {
	var want apiv1.QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))
	dec.DisallowUnknownFields()
	werr := dec.Decode(&want)
	var buf []byte
	got, err := readQuery(nil, io.NopCloser(bytes.NewReader(body)), &buf)
	if (err == nil) != (werr == nil) || err == nil && got != want {
		t.Fatalf("%.200q: hand decoder %+v, %v; encoding/json %+v, %v", body, got, err, want, werr)
	}
}

func TestLatestEndpoint(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 5)

	resp, body := f.do(t, "GET", apiv1.LatestPath("m.cap"), "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tu apiv1.Tuple
	if err := json.Unmarshal(body, &tu); err != nil {
		t.Fatal(err)
	}
	if tu.Metric != "m.cap" || tu.Value != 4 || tu.Kind != "fact" || tu.Source != "measured" {
		t.Fatalf("tuple %+v", tu)
	}

	resp, body = f.do(t, "GET", apiv1.LatestPath("missing.metric"), "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeNoSuchMetric {
		t.Fatalf("envelope %+v", e)
	}
}

func TestRateLimitEndpoint(t *testing.T) {
	clk := sim.NewVirtual(time.Unix(0, 0))
	f := newFixture(t, Config{Rate: 1, Burst: 2, Clock: clk, Obs: obs.NewRegistry()})
	f.publish(t, "m.cap", 1)

	for i := 0; i < 2; i++ {
		resp, body := f.do(t, "GET", apiv1.PathTopics, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := f.do(t, "GET", apiv1.PathTopics, "", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeRateLimited || !e.Retryable {
		t.Fatalf("envelope %+v", e)
	}

	// Virtual time refills the bucket deterministically.
	clk.Advance(time.Second)
	resp, _ = f.do(t, "GET", apiv1.PathTopics, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: status %d", resp.StatusCode)
	}
}

func TestSSESubscribe(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 3)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", f.srv.URL+apiv1.SubscribePath("m.cap"), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var ids []uint64
	var values []float64
	for sc.Scan() && len(values) < 3 {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			var v uint64
			fmt.Sscanf(id, "%d", &v)
			ids = append(ids, v)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var fr apiv1.Frame
			if err := json.Unmarshal([]byte(data), &fr); err != nil {
				t.Fatalf("bad frame %q: %v", data, err)
			}
			if fr.Type != apiv1.FrameTuple {
				t.Fatalf("unexpected frame %+v", fr)
			}
			values = append(values, fr.Tuple.Value)
		}
	}
	if len(values) != 3 || values[0] != 0 || values[2] != 2 {
		t.Fatalf("values %v", values)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids %v", ids)
	}
	cancel()
}

func TestSSEResume(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 5)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Resume after stream ID 3: only tuples 4 and 5 arrive.
	req, _ := http.NewRequestWithContext(ctx, "GET", f.srv.URL+apiv1.SubscribePath("m.cap")+"?after=3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var got []uint64
	for sc.Scan() && len(got) < 2 {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var fr apiv1.Frame
			if err := json.Unmarshal([]byte(data), &fr); err != nil {
				t.Fatal(err)
			}
			got = append(got, fr.Tuple.StreamID)
		}
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("resumed ids %v, want [4 5]", got)
	}
}

// TestSlowConsumerEviction attaches a subscriber that never drains and
// floods the topic: the ring laps its cursor, the subscriber is evicted with
// a slow_consumer frame, and the publisher is never blocked.
func TestSlowConsumerEviction(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, Config{QueueSize: 4, Obs: reg})

	sub, err := f.gw.Attach(context.Background(), "slow", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Far past the 4 frames it may trail the tail by.
	f.publish(t, "m.cap", 64)

	select {
	case fr := <-sub.Final():
		if fr.Type != apiv1.FrameError || fr.Error.Code != apiv1.CodeSlowConsumer || !fr.Error.Retryable {
			t.Fatalf("terminal frame %+v", fr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no eviction within 5s")
	}
	if !sub.Evicted() {
		t.Fatal("Evicted() false after eviction")
	}
	// The hub forgot the subscriber before it queued the terminal frame.
	if n := reg.Gauge("gateway_subscribers").Value(); n != 0 {
		t.Fatalf("subscriber still attached: %v", n)
	}
	if n := reg.Snapshot().Counter("gateway_evictions_total"); n != 1 {
		t.Fatalf("gateway_evictions_total = %d, want 1", n)
	}
}

// TestWellBehavedSubscriberLosesNothing drains promptly and must see every
// tuple exactly once, in stream order. Publishing rides a batch barrier —
// each batch fits the ring and is fully drained before the next one —
// so the zero-loss invariant does not depend on goroutine scheduling.
func TestWellBehavedSubscriberLosesNothing(t *testing.T) {
	const queue, batches = 8, 64
	f := newFixture(t, Config{QueueSize: queue})
	sub, err := f.gw.Attach(context.Background(), "good", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var ids []uint64
	for b := 0; b < batches; b++ {
		f.publish(t, "m.cap", queue)
		for i := 0; i < queue; i++ {
			fr, more := sub.Next(ctx)
			if !more || fr.Type != apiv1.FrameTuple {
				t.Fatalf("batch %d frame %d: %+v more=%v", b, i, fr, more)
			}
			ids = append(ids, fr.Tuple.StreamID)
		}
	}
	if len(ids) != queue*batches {
		t.Fatalf("received %d tuples, want %d", len(ids), queue*batches)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("ids[%d] = %d: not contiguous in order", i, id)
		}
	}
	if sub.Evicted() {
		t.Fatal("well-behaved subscriber evicted")
	}
	sub.Close()
}

// TestGracefulDrain: readiness flips, subscribers get goaway, new work is
// refused.
func TestGracefulDrain(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 1)

	sub, err := f.gw.Attach(context.Background(), "p", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the one queued tuple so the goaway is next.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if fr, more := sub.Next(ctx); !more || fr.Type != apiv1.FrameTuple {
		t.Fatalf("first frame %+v more=%v", fr, more)
	}

	if err := f.gw.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	fr, more := sub.Next(ctx)
	if more || fr.Type != apiv1.FrameGoaway {
		t.Fatalf("expected goaway, got %+v more=%v", fr, more)
	}

	resp, _ := f.do(t, "GET", apiv1.PathReadyz, "", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, body := f.do(t, "GET", apiv1.PathTopics, "", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", resp.StatusCode)
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeDraining {
		t.Fatalf("envelope %+v", e)
	}
	if _, err := f.gw.Attach(context.Background(), "p", "m.cap", 0); err == nil {
		t.Fatal("attach during drain should fail")
	}
}

func TestRetentionUnavailableOverBus(t *testing.T) {
	f := newFixture(t, Config{})
	resp, body := f.do(t, "GET", apiv1.PathRetention, "", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != apiv1.CodeUnavailable {
		t.Fatalf("envelope %+v", e)
	}
}

// TestQueryNaNIsAnInternalError: an aggregate over a series holding NaN used
// to answer 200 with an empty body — the encoder failed after the header was
// out and the error was dropped. The answer is encoded before the first byte
// now, so the client gets the error envelope.
func TestQueryNaNIsAnInternalError(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 3)
	p, err := telemetry.NewFact("m.cap", time.Unix(1700000100, 0).UnixNano(), math.NaN()).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.broker.Publish(context.Background(), "m.cap", p); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path, body string }{
		{"POST", apiv1.PathQuery, `{"query":"SELECT AVG(Value), MAX(Value) FROM m.cap"}`},
		{"GET", apiv1.LatestPath("m.cap"), ""},
	} {
		resp, body := f.do(t, tc.method, tc.path, "", tc.body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s %s: status %d, want 500: %q", tc.method, tc.path, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != apiv1.CodeInternal || e.Retryable {
			t.Fatalf("%s %s: envelope %+v", tc.method, tc.path, e)
		}
	}
	// The finite part of the series still answers.
	resp, body := f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT COUNT(*), MAX(Timestamp) FROM m.cap"}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"rows":[[4,1700000100000000000]]`) {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestBindTimeErrorsAreBadRequests: a literal a cached shape cannot take is
// refused when the plan is bound, not when the text is parsed — and is still
// the client's error, not the server's.
func TestBindTimeErrorsAreBadRequests(t *testing.T) {
	f := newFixture(t, Config{})
	f.publish(t, "m.cap", 3)
	if resp, body := f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT Value FROM m.cap LIMIT 2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, err := f.backend.Query("SELECT Value FROM m.cap LIMIT 0")
	if hits := f.planHits.Value(); err == nil || hits != 1 || apiError(err).Code != apiv1.CodeBadRequest {
		t.Fatalf("LIMIT 0 on a cached shape: err %v, %d cache hits", err, hits)
	}
	resp, body := f.do(t, "POST", apiv1.PathQuery, "", `{"query":"SELECT Value FROM m.cap LIMIT 0"}`)
	if e := decodeErr(t, body); resp.StatusCode != http.StatusBadRequest || e.Code != apiv1.CodeBadRequest || !strings.Contains(e.Message, "syntax error at 30: LIMIT must be positive") {
		t.Fatalf("status %d, envelope %+v", resp.StatusCode, e)
	}
}

// BenchmarkGatewayQuery is the query path from the handler down — request
// decode, plan cache, execution, response encode — without a socket: a
// window-shaped aggregate whose literals change with every request.
func BenchmarkGatewayQuery(b *testing.B) {
	broker := stream.NewBroker(0)
	defer broker.Close()
	gw := New(NewBusBackend(broker), Config{Rate: -1})
	defer gw.Close()
	base := time.Unix(1700000000, 0).UnixNano()
	for i := 0; i < 16; i++ { // a short topic: the bus read is not what is measured
		p, _ := telemetry.NewFact("m.cap", base+int64(i), float64(i)).MarshalBinary()
		if _, err := broker.Publish(context.Background(), "m.cap", p); err != nil {
			b.Fatal(err)
		}
	}
	h := gw.mux
	bodies := make([]string, 4096) // more texts of the one shape than any plan cache holds
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"query":"SELECT COUNT(*), AVG(Value), MAX(Value) FROM m.cap WHERE Timestamp BETWEEN %d AND %d"}`, base-int64(i), base+int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathQuery, strings.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
