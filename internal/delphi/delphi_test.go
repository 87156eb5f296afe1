package delphi

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
)

func TestFeatureGenerators(t *testing.T) {
	for _, f := range Features() {
		s := f.Generate(100, 0, 42)
		if len(s) != 100 {
			t.Fatalf("%s: len=%d", f, len(s))
		}
		// Deterministic for the same seed.
		s2 := f.Generate(100, 0, 42)
		for i := range s {
			if s[i] != s2[i] {
				t.Fatalf("%s: nondeterministic at %d", f, i)
			}
		}
	}
}

func TestFeatureShapes(t *testing.T) {
	up := TrendUp.Generate(100, 0, 1)
	if up[99] <= up[0] {
		t.Fatal("trend-up not increasing")
	}
	down := TrendDown.Generate(100, 0, 1)
	if down[99] >= down[0] {
		t.Fatal("trend-down not decreasing")
	}
	c := Constant.Generate(50, 0, 1)
	for i := 1; i < len(c); i++ {
		if c[i] != c[0] {
			t.Fatal("constant not constant")
		}
	}
	saw := Sawtooth.Generate(100, 0, 3)
	resets := 0
	for i := 1; i < len(saw); i++ {
		if saw[i] < saw[i-1] {
			resets++
		}
	}
	if resets < 2 {
		t.Fatalf("sawtooth resets=%d", resets)
	}
}

func TestFeatureStringNames(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Features() {
		n := f.String()
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
	if Feature(99).String() != "feature(99)" {
		t.Fatal("unknown feature name")
	}
}

func TestComposite(t *testing.T) {
	s := Composite(1000, 0.1, 7)
	if len(s) != 1000 {
		t.Fatalf("len=%d", len(s))
	}
	// No absurd cliffs between stitched segments beyond level shifts: the
	// series must at least vary.
	min, max := s[0], s[0]
	for _, v := range s {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == min {
		t.Fatal("composite is constant")
	}
}

func TestNormalize(t *testing.T) {
	norm := make([]float64, 5)
	loc, scale := NormalizeInto(norm, []float64{10, 10, 10, 10, 10})
	if loc != 10 || scale != 1 {
		t.Fatalf("loc=%f scale=%f", loc, scale)
	}
	for _, v := range norm {
		if v != 0 {
			t.Fatal("constant window not zeroed")
		}
	}
	norm = norm[:2]
	loc, scale = NormalizeInto(norm, []float64{0, 10})
	if loc != 5 || scale != 5 {
		t.Fatalf("loc=%f scale=%f", loc, scale)
	}
	if norm[0] != -1 || norm[1] != 1 {
		t.Fatalf("norm=%v", norm)
	}
}

func TestWindows(t *testing.T) {
	xs, ys := Windows([]float64{1, 2, 3, 4, 5, 6, 7}, 5)
	if len(xs) != 2 || len(ys) != 2 {
		t.Fatalf("len xs=%d ys=%d", len(xs), len(ys))
	}
	if xs, ys := Windows([]float64{1, 2}, 5); xs != nil || ys != nil {
		t.Fatal("short series should give nil")
	}
	if xs, _ := Windows([]float64{1, 2, 3}, 0); xs != nil {
		t.Fatal("window 0 should give nil")
	}
}

// trainedModel caches a trained Delphi across tests (training is the slow
// part).
var (
	trainOnce   sync.Once
	cachedModel *Model
	cachedleast error
)

func trained(t testing.TB) *Model {
	t.Helper()
	trainOnce.Do(func() {
		cachedModel, cachedleast = Train(TrainOptions{Seed: 1, Epochs: 25, SeriesPerFeature: 4, SeriesLen: 200})
	})
	if cachedleast != nil {
		t.Fatal(cachedleast)
	}
	return cachedModel
}

func TestTrainParamCount(t *testing.T) {
	m := trained(t)
	total, trainable := m.ParamCount()
	if total != 50 || trainable != 14 {
		t.Fatalf("params total=%d trainable=%d, want 50/14 (paper)", total, trainable)
	}
}

func TestPredictTrend(t *testing.T) {
	m := trained(t)
	// Linear ramp: next value of [10,20,30,40,50] should be near 60.
	p, err := m.Predict([]float64{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-60) > 8 {
		t.Fatalf("trend prediction %f, want ~60", p)
	}
}

func TestPredictConstant(t *testing.T) {
	m := trained(t)
	p, err := m.Predict([]float64{42, 42, 42, 42, 42})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-42) > 1 {
		t.Fatalf("constant prediction %f, want ~42", p)
	}
}

func TestPredictGeneralizesToUnseenMetric(t *testing.T) {
	// Metrics at scales never seen in training — the paper's claim is that
	// Delphi predicts metrics it wasn't trained for. Window normalization
	// is what makes this work.
	m := trained(t)

	// A 10^6-scale linear trend.
	trend := make([]float64, 200)
	for i := range trend {
		trend[i] = 1e6 * float64(i)
	}
	if _, _, r2, err := m.Evaluate(trend); err != nil || r2 < 0.99 {
		t.Fatalf("trend r2=%f err=%v", r2, err)
	}

	// A HACC-style capacity staircase: 38000 bytes consumed every 5 ticks
	// from a 1 GB device (§4.3.1's regular workload shape).
	capTrace := make([]float64, 300)
	for i := range capTrace {
		capTrace[i] = 1e9 - 38000*float64(i/5)
	}
	if _, _, r2, err := m.Evaluate(capTrace); err != nil || r2 < 0.99 {
		t.Fatalf("capacity staircase r2=%f err=%v", r2, err)
	}
}

func TestPredictWindowSizeError(t *testing.T) {
	m := trained(t)
	if _, err := m.Predict([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong window size accepted")
	}
}

func TestEvaluateShortSeries(t *testing.T) {
	m := trained(t)
	if _, _, _, err := m.Evaluate([]float64{1, 2, 3}); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	m := trained(t)
	path := filepath.Join(t.TempDir(), "delphi.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 3, 5, 7, 9}
	p1, _ := m.Predict(w)
	p2, _ := m2.Predict(w)
	if math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("predictions differ after reload: %f vs %f", p1, p2)
	}
	total, trainable := m2.ParamCount()
	if total != 50 || trainable != 14 {
		t.Fatalf("reloaded params %d/%d", total, trainable)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveUntrained(t *testing.T) {
	m := &Model{}
	if err := m.Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("untrained model saved")
	}
	if _, err := m.Predict([]float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("untrained model predicted")
	}
}

func TestOnlineFallback(t *testing.T) {
	o := NewOnline(nil)
	if _, ok := o.Predict(); ok {
		t.Fatal("empty online predicted ok")
	}
	o.Observe(5)
	v, ok := o.Predict()
	if ok || v != 5 {
		t.Fatalf("fallback v=%f ok=%v", v, ok)
	}
}

func TestOnlinePredict(t *testing.T) {
	o := NewOnline(trained(t))
	for _, v := range []float64{10, 20, 30, 40} {
		o.Observe(v)
	}
	if o.Ready() {
		t.Fatal("ready before window full")
	}
	o.Observe(50)
	if !o.Ready() {
		t.Fatal("not ready after window full")
	}
	p, ok := o.Predict()
	if !ok || math.Abs(p-60) > 8 {
		t.Fatalf("online predict=%f ok=%v", p, ok)
	}
	// Sliding: observe 60, window becomes 20..60.
	o.Observe(60)
	p, ok = o.Predict()
	if !ok || math.Abs(p-70) > 8 {
		t.Fatalf("slid predict=%f ok=%v", p, ok)
	}
}

func BenchmarkDelphiPredict(b *testing.B) {
	m, err := Train(TrainOptions{Seed: 1, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	if err != nil {
		b.Fatal(err)
	}
	w := []float64{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(w); err != nil {
			b.Fatal(err)
		}
	}
}
