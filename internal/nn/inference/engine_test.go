package inference

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// layeredPredict evaluates the stack one layer at a time — each head's dot
// product, then the combiner's, each from its bias left to right — with the
// combiner input assembled the way Delphi does (head outputs ++ window ++
// mean ++ slope). The engine must match it bit for bit.
func layeredPredict(features []*nn.Dense, combiner *nn.Dense, x []float64) float64 {
	dense := func(d *nn.Dense, x []float64) float64 {
		sum := d.B[0]
		for i, xi := range x {
			sum += d.W[i] * xi
		}
		return sum
	}
	cin := make([]float64, 0, combiner.In)
	for _, f := range features {
		cin = append(cin, dense(f, x))
	}
	cin = append(cin, x...)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	cin = append(cin, mean, x[len(x)-1]-x[0])
	return dense(combiner, cin)
}

// randomStack builds a seeded window-5 stack with the given number of heads.
func randomStack(heads int, seed int64) ([]*nn.Dense, *nn.Dense) {
	features := make([]*nn.Dense, heads)
	for h := range features {
		features[h] = nn.NewDense(window, seed+int64(h))
		features[h].Frozen = true
	}
	return features, nn.NewDense(heads+window+2, seed+1000)
}

func TestEngineMatchesSequentialBitExact(t *testing.T) {
	for _, heads := range []int{1, 6, 9} {
		features, combiner := randomStack(heads, int64(500+heads))
		eng, err := NewEngine(features, combiner)
		if err != nil {
			t.Fatalf("heads=%d: %v", heads, err)
		}
		scratch := make([]float64, len(features))
		r := rand.New(rand.NewSource(int64(window + heads)))
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, window)
			for i := range x {
				x[i] = r.NormFloat64() * float64(1+trial%7)
			}
			if got, want := eng.Forward(x, scratch), layeredPredict(features, combiner, x); got != want { // bit-identical, not approximately equal
				t.Fatalf("heads=%d trial=%d: fused %v != layered %v", heads, trial, got, want)
			}
		}
	}
}

func TestEngineSnapshotsWeights(t *testing.T) {
	features, combiner := randomStack(2, 1)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	scratch := make([]float64, len(features))
	before := eng.Forward(x, scratch)
	combiner.W[0] += 1000 // mutate the source; the engine must not see it
	features[0].W[0] += 1000
	if after := eng.Forward(x, scratch); after != before {
		t.Fatalf("engine tracked source mutation: %v -> %v", before, after)
	}
}

func TestNewEngineRejectsBadShapes(t *testing.T) {
	features, combiner := randomStack(6, 1)
	if _, err := NewEngine(nil, combiner); err == nil {
		t.Fatal("no heads accepted")
	}
	if _, err := NewEngine(features, nil); err == nil {
		t.Fatal("nil combiner accepted")
	}
	if _, err := NewEngine([]*nn.Dense{nil}, nn.NewDense(1+window+2, 1)); err == nil {
		t.Fatal("nil head accepted")
	}
}

// TestNewEngineRejectsShapes: the engine has one kernel, Delphi's window-5
// stack, and any other shape is an error, not a panic — a window of four
// throughout, one head that is not 5 → 1, and under six heads a combiner
// that is not 13 → 1.
func TestNewEngineRejectsShapes(t *testing.T) {
	features, combiner := randomStack(6, 1)
	win4 := make([]*nn.Dense, 6)
	for h := range win4 {
		win4[h] = nn.NewDense(4, int64(h))
	}
	if _, err := NewEngine(win4, nn.NewDense(6+4+2, 1)); err == nil {
		t.Error("window-4 stack accepted")
	}
	bad := append([]*nn.Dense{nn.NewDense(4, 1)}, features[1:]...)
	if _, err := NewEngine(bad, combiner); err == nil {
		t.Error("4 → 1 head accepted")
	}
	if _, err := NewEngine(features, nn.NewDense(12, 1)); err == nil {
		t.Error("12 → 1 combiner accepted under six heads")
	}
}

func TestForwardZeroAlloc(t *testing.T) {
	features, combiner := randomStack(6, 3)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	scratch := make([]float64, len(features))
	if allocs := testing.AllocsPerRun(1000, func() { eng.Forward(x, scratch) }); allocs != 0 {
		t.Fatalf("Forward allocates %v per op, want 0", allocs)
	}
}

// TestLinear5KernelMatchesSequentialBitExact pins the unrolled kernel on
// Delphi's production stack — six heads under a 13 → 1 combiner — against the
// layered evaluation over 500 windows.
func TestLinear5KernelMatchesSequentialBitExact(t *testing.T) {
	features := make([]*nn.Dense, 6)
	for h := range features {
		features[h] = nn.NewDense(5, int64(h+77))
		features[h].Frozen = true
	}
	combiner := nn.NewDense(6+5+2, 8877)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, len(features))
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 5)
		for i := range x {
			x[i] = r.NormFloat64() * float64(1+trial%9)
		}
		want := layeredPredict(features, combiner, x)
		if got := eng.Forward(x, scratch); got != want {
			t.Fatalf("trial %d: fused %v != layered %v", trial, got, want)
		}
	}
}
