package apollo_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/apollo"
)

// TestPublicAPIRoundTrip exercises the documented quickstart path end to
// end through the facade only.
func TestPublicAPIRoundTrip(t *testing.T) {
	clock := apollo.NewSimClock(time.Unix(0, 0))
	svc := apollo.New(apollo.Config{Mode: apollo.IntervalSimpleAIMD, Clock: clock})
	capacity := 1000.0
	if _, err := svc.RegisterMetric(apollo.HookFunc{
		ID: "node1.nvme0.capacity",
		Fn: func() (float64, error) { return capacity, nil },
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tuples, err := svc.Subscribe(ctx, "node1.nvme0.capacity")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	// The vertex publishes a tuple before it appends it to its history, so
	// the first tuple off the bus is waited for and the service stopped,
	// which waits for the vertex's poll to finish, before the query.
	if _, ok := <-tuples; !ok {
		t.Fatal("no tuple within 2 s")
	}
	svc.Stop()
	res, err := svc.Query("SELECT MAX(Timestamp), metric FROM node1.nvme0.capacity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].F != 1000 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestFacadeInsights(t *testing.T) {
	clock := apollo.NewSimClock(time.Unix(0, 0))
	svc := apollo.New(apollo.Config{Clock: clock})
	va, _ := svc.RegisterMetric(apollo.HookFunc{ID: "a", Fn: func() (float64, error) { return 4, nil }})
	vb, _ := svc.RegisterMetric(apollo.HookFunc{ID: "b", Fn: func() (float64, error) { return 6, nil }})
	if _, err := svc.RegisterInsight("mean", []apollo.MetricID{"a", "b"}, apollo.MeanInsight); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tuples, err := svc.Subscribe(ctx, "mean")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	_ = va
	_ = vb
	for in := range tuples {
		if in.Value == 5 && in.Kind == apollo.KindInsight {
			return
		}
	}
	t.Fatal("mean insight never reached 5")
}

func TestFacadeConstructors(t *testing.T) {
	in := apollo.NewFact("m", 7, 8)
	if in.Metric != "m" || in.Timestamp != 7 || in.Value != 8 || in.Source != apollo.Measured {
		t.Fatalf("fact=%v", in)
	}
	cfg := apollo.DefaultAdaptiveConfig()
	if cfg.Window != 10 || cfg.Initial != time.Second {
		t.Fatalf("cfg=%+v", cfg)
	}
}

func TestFacadeDelphiTrainSaveLoad(t *testing.T) {
	m, err := apollo.TrainDelphi(apollo.DelphiTrainOptions{Seed: 1, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/delphi.json"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := apollo.LoadDelphi(path)
	if err != nil {
		t.Fatal(err)
	}
	total, trainable := m2.ParamCount()
	if total != 50 || trainable != 14 {
		t.Fatalf("params %d/%d", total, trainable)
	}
}

// TestFacadeMetrics checks the observability surface next to Health: a
// shared registry, typed snapshots from Service.Metrics, and the HTTP
// exposition handler.
func TestFacadeMetrics(t *testing.T) {
	reg := apollo.NewMetricsRegistry()
	clock := apollo.NewSimClock(time.Unix(0, 0))
	svc := apollo.New(apollo.Config{Clock: clock, Obs: reg})
	defer svc.Stop()
	v, err := svc.RegisterMetric(apollo.HookFunc{
		ID: "node1.nvme0.capacity",
		Fn: func() (float64, error) { return 1000, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	v.PollOnce()

	var m apollo.Metrics = svc.Metrics()
	if got := m.Counter(`score_published_total{metric="node1.nvme0.capacity"}`); got != 1 {
		t.Fatalf("published counter = %d, want 1", got)
	}
	if got := m.Counter("stream_broker_publish_total"); got != 1 {
		t.Fatalf("broker publish counter = %d, want 1", got)
	}

	srv := httptest.NewServer(apollo.MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "stream_broker_publish_total 1") {
		t.Fatalf("exposition missing broker counter:\n%s", body)
	}
}
