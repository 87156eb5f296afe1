package adaptive

import (
	"testing"
	"testing/quick"
	"time"
)

func cfg() Config {
	c := DefaultConfig()
	c.Threshold = 0.5
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Initial = 0 },
		func(c *Config) { c.Min = 0 },
		func(c *Config) { c.Max = c.Min - 1 },
		func(c *Config) { c.AdditiveStep = 0 },
		func(c *Config) { c.MultiplicativeFactor = 1 },
		func(c *Config) { c.Threshold = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if _, err := NewSimpleAIMD(c); err == nil {
			t.Errorf("case %d: simple accepted invalid config", i)
		}
		if _, err := NewComplexAIMD(c); err == nil {
			t.Errorf("case %d: complex accepted invalid config", i)
		}
	}
}

func TestFixed(t *testing.T) {
	f := NewFixed(5 * time.Second)
	if f.Next(1) != 5*time.Second || f.Next(100) != 5*time.Second {
		t.Fatal("fixed interval changed")
	}
	if f.Interval() != 5*time.Second {
		t.Fatal("Interval wrong")
	}
	f.Reset()
	if f.Interval() != 5*time.Second {
		t.Fatal("Reset changed fixed interval")
	}
}

func TestSimpleAIMDGrowsWhenStable(t *testing.T) {
	s, err := NewSimpleAIMD(cfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Next(10) // first sample establishes baseline at Initial
	want := time.Second
	for i := 0; i < 5; i++ {
		want += time.Second
		if got := s.Next(10); got != want {
			t.Fatalf("step %d: interval=%v want %v", i, got, want)
		}
	}
}

func TestSimpleAIMDShrinksOnChange(t *testing.T) {
	s, _ := NewSimpleAIMD(cfg())
	s.Next(0)
	for i := 0; i < 9; i++ {
		s.Next(0) // grow to 10s
	}
	if s.Interval() != 10*time.Second {
		t.Fatalf("grew to %v", s.Interval())
	}
	if got := s.Next(100); got != 5*time.Second {
		t.Fatalf("after big change interval=%v want 5s", got)
	}
	if got := s.Next(200); got != 2500*time.Millisecond {
		t.Fatalf("second change interval=%v want 2.5s", got)
	}
}

func TestSimpleAIMDClamped(t *testing.T) {
	c := cfg()
	c.Max = 3 * time.Second
	s, _ := NewSimpleAIMD(c)
	s.Next(0)
	for i := 0; i < 10; i++ {
		s.Next(0)
	}
	if s.Interval() != 3*time.Second {
		t.Fatalf("max clamp: %v", s.Interval())
	}
	for i := 0; i < 10; i++ {
		s.Next(float64(100 * (i + 1)))
	}
	if s.Interval() != time.Second {
		t.Fatalf("min clamp: %v", s.Interval())
	}
}

func TestSimpleAIMDReset(t *testing.T) {
	s, _ := NewSimpleAIMD(cfg())
	s.Next(0)
	s.Next(0)
	s.Next(0)
	s.Reset()
	if s.Interval() != time.Second {
		t.Fatalf("after reset: %v", s.Interval())
	}
	// First sample after reset must not count as a change.
	if got := s.Next(999); got != time.Second {
		t.Fatalf("first post-reset Next=%v", got)
	}
}

// The motivating case for ComplexAIMD (§3.4.1): a metric bouncing between
// two discrete values has a constant change magnitude; simple AIMD keeps
// shrinking its interval while complex AIMD learns the rhythm and relaxes.
func TestComplexAIMDHandlesBouncingMetric(t *testing.T) {
	c := cfg()
	simple, _ := NewSimpleAIMD(c)
	complexC, _ := NewComplexAIMD(c)
	for i := 0; i < 40; i++ {
		v := float64(i%2) * 100 // 0,100,0,100,...
		simple.Next(v)
		complexC.Next(v)
	}
	if simple.Interval() != c.Min {
		t.Fatalf("simple should be pinned at min, got %v", simple.Interval())
	}
	if complexC.Interval() <= simple.Interval() {
		t.Fatalf("complex (%v) should relax beyond simple (%v) on a bouncing metric",
			complexC.Interval(), simple.Interval())
	}
}

func TestComplexAIMDWindowOneMatchesSimpleOnSteps(t *testing.T) {
	// With window 1, the expected change is just the previous change.
	// On a trace whose changes alternate hugely, both controllers shrink.
	c := cfg()
	c.Window = 1
	cc, _ := NewComplexAIMD(c)
	cc.Next(0)
	cc.Next(1000) // change 1000 vs expected 0 -> shrink (already min)
	if cc.Interval() != c.Min {
		t.Fatalf("interval=%v", cc.Interval())
	}
	cc.Next(2000) // change 1000 vs expected 1000 -> deviation 0 -> grow
	if cc.Interval() != c.Min+time.Second {
		t.Fatalf("interval=%v want %v", cc.Interval(), c.Min+time.Second)
	}
}

func TestComplexAIMDReset(t *testing.T) {
	cc, _ := NewComplexAIMD(cfg())
	for i := 0; i < 20; i++ {
		cc.Next(float64(i * 50))
	}
	cc.Reset()
	if cc.Interval() != time.Second {
		t.Fatalf("after reset: %v", cc.Interval())
	}
	if cc.filled != 0 || cc.sum != 0 {
		t.Fatalf("window not cleared: filled=%d sum=%f", cc.filled, cc.sum)
	}
}

// Property: intervals always stay within [Min, Max] for any input sequence.
func TestIntervalsAlwaysClampedQuick(t *testing.T) {
	c := cfg()
	f := func(values []float64) bool {
		s, _ := NewSimpleAIMD(c)
		cc, _ := NewComplexAIMD(c)
		for _, v := range values {
			for _, d := range []time.Duration{s.Next(v), cc.Next(v)} {
				if d < c.Min || d > c.Max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateStaticTrace(t *testing.T) {
	trace := make([]float64, 100) // constant metric
	s, _ := NewSimpleAIMD(cfg())
	res := Evaluate(trace, s, time.Second, 0)
	if res.Accuracy() != 1.0 {
		t.Fatalf("accuracy=%f on constant trace", res.Accuracy())
	}
	if res.Cost() >= 0.5 {
		t.Fatalf("cost=%f should be low on constant trace", res.Cost())
	}
	fixed := Evaluate(trace, NewFixed(time.Second), time.Second, 0)
	if fixed.Cost() != 1.0 || fixed.Accuracy() != 1.0 {
		t.Fatalf("1s fixed baseline cost=%f acc=%f", fixed.Cost(), fixed.Accuracy())
	}
}

func TestEvaluateRampTrace(t *testing.T) {
	trace := make([]float64, 100)
	for i := range trace {
		trace[i] = float64(i * 10) // always changing beyond threshold
	}
	s, _ := NewSimpleAIMD(cfg())
	res := Evaluate(trace, s, time.Second, 0)
	// Interval pinned at min -> polls every tick -> perfect but expensive.
	if res.Cost() != 1.0 || res.Accuracy() != 1.0 {
		t.Fatalf("cost=%f acc=%f", res.Cost(), res.Accuracy())
	}
}

func TestEvaluateFixedFiveSecond(t *testing.T) {
	// Step change at t=7; a 5s fixed poller holds a stale value for ticks
	// 7,8,9 and re-syncs at tick 10.
	trace := make([]float64, 20)
	for i := 7; i < 20; i++ {
		trace[i] = 100
	}
	res := Evaluate(trace, NewFixed(5*time.Second), time.Second, 0)
	if res.Calls != 4 { // ticks 0,5,10,15
		t.Fatalf("calls=%d", res.Calls)
	}
	if res.Matches != 17 {
		t.Fatalf("matches=%d want 17", res.Matches)
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	res := Evaluate(nil, NewFixed(time.Second), time.Second, 0)
	if res.Cost() != 0 || res.Accuracy() != 0 || res.Calls != 0 {
		t.Fatalf("empty trace result=%+v", res)
	}
}

func BenchmarkSimpleAIMDNext(b *testing.B) {
	s, _ := NewSimpleAIMD(cfg())
	for i := 0; i < b.N; i++ {
		s.Next(float64(i % 7))
	}
}

func BenchmarkComplexAIMDNext(b *testing.B) {
	c, _ := NewComplexAIMD(cfg())
	for i := 0; i < b.N; i++ {
		c.Next(float64(i % 7))
	}
}

// TestDefaultConfig pins the paper's evaluation setup: a 1 s initial
// interval in [1 s, 60 s], +1 s additive growth, halving on change, and a
// rolling-average window of 10.
func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Initial != time.Second || c.Min != time.Second || c.Max != time.Minute ||
		c.AdditiveStep != time.Second || c.MultiplicativeFactor != 2 || c.Window != 10 {
		t.Fatalf("DefaultConfig() = %+v", c)
	}
}
