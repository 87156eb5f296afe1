package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if r.Counter("c_total") != c {
		t.Fatal("Counter did not return the registered instance")
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per)*0.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %v", got)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", 0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h_seconds"]
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-5.555) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
	wantCum := []uint64{1, 2, 3, 4} // cumulative per bucket, +Inf last
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %d", len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket should be +Inf")
	}
}

// TestHistogramBoundaryLandsInBucket: a value lands in the first bucket whose
// bound is >= it — a value exactly on a bound counts as <= that bound — and a
// value no bound admits, NaN included, lands in +Inf.
func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	for _, c := range []struct {
		v      float64
		bucket int // index into bounds 1, 2, +Inf
	}{
		{1, 0}, {2, 1}, {0.5, 0}, {1.5, 1}, {2.5, 2}, {math.Nextafter(1, 2), 1}, {math.Copysign(0, -1), 0},
		{math.Inf(-1), 0}, {math.Inf(1), 2}, {math.NaN(), 2},
	} {
		h := NewRegistry().Histogram("h", 1, 2)
		h.Observe(c.v)
		for i := range h.counts {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Fatalf("Observe(%v): bucket %d holds %d, want it in bucket %d", c.v, i, got, c.bucket)
			}
		}
	}
	h := NewRegistry().Histogram("h", 1, math.Inf(1))
	h.Observe(math.Inf(1)) // on the explicit +Inf bound
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("+Inf not in the +Inf bound's bucket: %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h_seconds")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Buckets[len(s.Buckets)-1].Count != s.Count {
		t.Fatal("+Inf bucket must equal total count")
	}
	if math.Abs(s.Sum-float64(workers*per)*0.001) > 1e-6 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestName(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Fatalf("Name no labels = %q", got)
	}
	got := Name("x_total", "metric", `a"b\c`)
	want := `x_total{metric="a\"b\\c"}`
	if got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	base, labels := splitName(got)
	if base != "x_total" || labels != `metric="a\"b\\c"` {
		t.Fatalf("splitName = %q / %q", base, labels)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Add(1)
	s := r.Snapshot()
	c.Add(9)
	if s.Counter("c_total") != 1 {
		t.Fatal("snapshot must not track later increments")
	}
	if r.Snapshot().Counter("c_total") != 10 {
		t.Fatal("registry must keep counting")
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("apollo_pub_total", "metric", "m1")).Add(3)
	r.Counter(Name("apollo_pub_total", "metric", "m2")).Add(4)
	r.Gauge("apollo_backlog").Set(7)
	r.Histogram("apollo_flush_seconds", 0.1, 1).Observe(0.05)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE apollo_pub_total counter\n",
		`apollo_pub_total{metric="m1"} 3` + "\n",
		`apollo_pub_total{metric="m2"} 4` + "\n",
		"# TYPE apollo_backlog gauge\n",
		"apollo_backlog 7\n",
		"# TYPE apollo_flush_seconds histogram\n",
		`apollo_flush_seconds_bucket{le="0.1"} 1` + "\n",
		`apollo_flush_seconds_bucket{le="+Inf"} 1` + "\n",
		"apollo_flush_seconds_sum 0.05\n",
		"apollo_flush_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE header must precede the first sample of its base name and
	// appear exactly once.
	if strings.Count(out, "# TYPE apollo_pub_total counter") != 1 {
		t.Fatalf("duplicate TYPE line:\n%s", out)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body = %q", body)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h_seconds")
	vs := []float64{3e-6, 4e-5, 2e-4, 5e-3, 0.3, 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vs[i%len(vs)])
	}
}
