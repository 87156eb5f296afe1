package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestEndToEndMetricsPipeline drives a full poll-build-publish-evict-archive
// cycle deterministically and asserts the obs counters surfaced by
// Service.Metrics track each stage.
func TestEndToEndMetricsPipeline(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{
		Clock:       clock,
		ArchiveDir:  t.TempDir(),
		HistorySize: 2,
	})
	var value float64
	v, err := s.RegisterMetric(score.HookFunc{
		ID: "disk.capacity",
		Fn: func() (float64, error) { value++; return value, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		clock.Advance(time.Second) // distinct timestamps for the history
		v.PollOnce()
	}
	s.Stop()

	m := s.Metrics()
	label := func(base string) string { return obs.Name(base, "metric", "disk.capacity") }
	if got := m.Counter(label("score_tuples_in_total")); got != 6 {
		t.Fatalf("tuples in = %d, want 6", got)
	}
	if got := m.Counter(label("score_tuples_out_total")); got != 6 {
		t.Fatalf("tuples out = %d, want 6", got)
	}
	if got := m.Counter(label("score_published_total")); got != 6 {
		t.Fatalf("published = %d, want 6", got)
	}
	if got := m.Counter("stream_broker_publish_total"); got != 6 {
		t.Fatalf("broker publishes = %d, want 6", got)
	}
	// HistorySize 2: 6 appends evict 4, each flowing into the archive.
	if got := m.Counter(label("queue_history_evictions_total")); got != 4 {
		t.Fatalf("evictions = %d, want 4", got)
	}
	if got := m.Counter(obs.Name("archive_appends_total", "log", "disk.capacity")); got != 4 {
		t.Fatalf("archive appends = %d, want 4", got)
	}
	if got := m.Gauge("stream_broker_topics"); got != 1 {
		t.Fatalf("topics gauge = %v, want 1", got)
	}

	// The same counters must round-trip through the text exposition.
	var sb strings.Builder
	if err := s.Obs().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `score_tuples_out_total{metric="disk.capacity"} 6`) {
		t.Fatalf("exposition missing tuples-out sample:\n%s", sb.String())
	}
}

// TestMetricsRegistrySharing verifies a caller-supplied registry aggregates
// the service's instruments.
func TestMetricsRegistrySharing(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0)), Obs: r})
	defer s.Stop()
	if s.Obs() != r {
		t.Fatal("service did not adopt the shared registry")
	}
	v, err := s.RegisterMetric(score.HookFunc{
		ID: telemetry.MetricID("m"),
		Fn: func() (float64, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	v.PollOnce()
	if got := r.Snapshot().Counter(obs.Name("score_tuples_in_total", "metric", "m")); got != 1 {
		t.Fatalf("shared registry counter = %d, want 1", got)
	}
}

// TestMetricsExposition: what a poll counts on a caller's registry reads the
// same off Service.Metrics and off the Prometheus text that obs.Handler
// serves for that registry, as apollod's -metrics-addr does.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0)), Obs: reg})
	defer s.Stop()
	v, err := s.RegisterMetric(constHook("node1.nvme0.capacity", 1000))
	if err != nil {
		t.Fatal(err)
	}
	v.PollOnce()

	m := s.Metrics()
	if got := m.Counter(obs.Name("score_published_total", "metric", "node1.nvme0.capacity")); got != 1 {
		t.Fatalf("published counter = %d, want 1", got)
	}
	if got := m.Counter("stream_broker_publish_total"); got != 1 {
		t.Fatalf("broker publish counter = %d, want 1", got)
	}

	srv := httptest.NewServer(obs.Handler(reg))
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
	for _, want := range []string{`score_published_total{metric="node1.nvme0.capacity"} 1`, "stream_broker_publish_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
