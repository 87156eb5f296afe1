package inference

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// layeredPredict is the reference layer-by-layer evaluation of the stack:
// every head and the combiner run as their own nn.Sequential, with the
// combiner input assembled the way Delphi does (head outputs ++ window ++
// mean ++ slope). The engine must match it bit for bit.
func layeredPredict(features []*nn.Dense, combiner *nn.Dense, x []float64) float64 {
	cin := make([]float64, 0, combiner.In)
	for _, f := range features {
		cin = append(cin, nn.NewSequential(f).Predict(x)[0])
	}
	cin = append(cin, x...)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	slope := x[len(x)-1] - x[0]
	cin = append(cin, mean, slope)
	return nn.NewSequential(combiner).Predict(cin)[0]
}

// randomStack builds a seeded stack of the given shape with a cycling mix of
// activations, so the equivalence holds beyond Delphi's all-Identity case.
func randomStack(win, heads int, seed int64) ([]*nn.Dense, *nn.Dense) {
	acts := []nn.Activation{nn.Identity, nn.ReLU, nn.Tanh, nn.Sigmoid}
	features := make([]*nn.Dense, heads)
	for h := range features {
		features[h] = nn.NewDense(win, 1, acts[h%len(acts)], seed+int64(h))
		features[h].Frozen = true
	}
	combiner := nn.NewDense(heads+win+2, 1, nn.Identity, seed+1000)
	return features, combiner
}

func TestEngineMatchesSequentialBitExact(t *testing.T) {
	for _, shape := range []struct{ win, heads int }{
		{3, 1}, {5, 6}, {8, 4}, {13, 9},
	} {
		features, combiner := randomStack(shape.win, shape.heads, int64(shape.win*100+shape.heads))
		eng, err := NewEngine(features, combiner)
		if err != nil {
			t.Fatalf("win=%d heads=%d: %v", shape.win, shape.heads, err)
		}
		scratch := make([]float64, eng.Heads())
		r := rand.New(rand.NewSource(int64(shape.win + shape.heads)))
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, shape.win)
			for i := range x {
				x[i] = r.NormFloat64() * float64(1+trial%7)
			}
			want := layeredPredict(features, combiner, x)
			got := eng.Forward(x, scratch)
			if got != want { // bit-identical, not approximately equal
				t.Fatalf("win=%d heads=%d trial=%d: fused %v != layered %v",
					shape.win, shape.heads, trial, got, want)
			}
		}
	}
}

func TestForwardBatchMatchesForwardBitExact(t *testing.T) {
	features, combiner := randomStack(5, 6, 42)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 256} {
		xs := make([]float64, n*eng.win)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		dst := make([]float64, n)
		scratch := make([]float64, eng.BatchScratchSize(n))
		eng.ForwardBatch(dst, xs, scratch)
		single := make([]float64, eng.Heads())
		for i := 0; i < n; i++ {
			want := eng.Forward(xs[i*eng.win:(i+1)*eng.win], single)
			if dst[i] != want {
				t.Fatalf("n=%d row=%d: batch %v != single %v", n, i, dst[i], want)
			}
		}
	}
}

func TestEngineSnapshotsWeights(t *testing.T) {
	features, combiner := randomStack(5, 2, 1)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	scratch := make([]float64, eng.Heads())
	before := eng.Forward(x, scratch)
	combiner.W[0] += 1000 // mutate the source; the engine must not see it
	features[0].W[0] += 1000
	if after := eng.Forward(x, scratch); after != before {
		t.Fatalf("engine tracked source mutation: %v -> %v", before, after)
	}
}

func TestNewEngineRejectsBadShapes(t *testing.T) {
	features, combiner := randomStack(5, 6, 1)
	if _, err := NewEngine(nil, combiner); err == nil {
		t.Fatal("no heads accepted")
	}
	if _, err := NewEngine(features, nil); err == nil {
		t.Fatal("nil combiner accepted")
	}
	if _, err := NewEngine(features, nn.NewDense(5, 1, nn.Identity, 1)); err == nil {
		t.Fatal("mis-shaped combiner accepted")
	}
	bad := append([]*nn.Dense{nn.NewDense(4, 1, nn.Identity, 1)}, features[1:]...)
	if _, err := NewEngine(bad, combiner); err == nil {
		t.Fatal("mis-shaped head accepted")
	}
	if _, err := NewEngine([]*nn.Dense{nn.NewDense(5, 2, nn.Identity, 1)}, combiner); err == nil {
		t.Fatal("multi-output head accepted")
	}
}

func TestForwardZeroAlloc(t *testing.T) {
	features, combiner := randomStack(5, 6, 3)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	scratch := make([]float64, eng.Heads())
	if allocs := testing.AllocsPerRun(1000, func() { eng.Forward(x, scratch) }); allocs != 0 {
		t.Fatalf("Forward allocates %v per op, want 0", allocs)
	}
	dst := make([]float64, 64)
	xs := make([]float64, 64*eng.win)
	bscratch := make([]float64, eng.BatchScratchSize(64))
	if allocs := testing.AllocsPerRun(200, func() { eng.ForwardBatch(dst, xs, bscratch) }); allocs != 0 {
		t.Fatalf("ForwardBatch allocates %v per op, want 0", allocs)
	}
}

func TestDenseForwardIntoMatchesForward(t *testing.T) {
	d := nn.NewDense(7, 3, nn.Tanh, 11)
	r := rand.New(rand.NewSource(2))
	dst := make([]float64, 3)
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 7)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		want := d.Forward(x)
		d.ForwardInto(dst, x)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d out %d: %v != %v", trial, i, dst[i], want[i])
			}
		}
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	if allocs := testing.AllocsPerRun(1000, func() { d.ForwardInto(dst, x) }); allocs != 0 {
		t.Fatalf("ForwardInto allocates %v per op, want 0", allocs)
	}
}

// TestLinear5KernelMatchesSequentialBitExact pins the unrolled window-5
// all-Identity kernel (Delphi's production shape) against the layered path —
// the cycling-activation shapes above never take that branch.
func TestLinear5KernelMatchesSequentialBitExact(t *testing.T) {
	features := make([]*nn.Dense, 6)
	for h := range features {
		features[h] = nn.NewDense(5, 1, nn.Identity, int64(h+77))
		features[h].Frozen = true
	}
	combiner := nn.NewDense(6+5+2, 1, nn.Identity, 8877)
	eng, err := NewEngine(features, combiner)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.linear5 {
		t.Fatal("window-5 all-Identity stack must select the unrolled kernel")
	}
	scratch := make([]float64, eng.Heads())
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
	// And the batched form against the single form.
	const n = 64
	xs := make([]float64, n*5)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	dst := make([]float64, n)
	bs := make([]float64, eng.BatchScratchSize(n))
	eng.ForwardBatch(dst, xs, bs)
	for i := 0; i < n; i++ {
		if want := eng.Forward(xs[i*5:(i+1)*5], scratch); dst[i] != want {
			t.Fatalf("row %d: batch %v != forward %v", i, dst[i], want)
		}
	}
}
