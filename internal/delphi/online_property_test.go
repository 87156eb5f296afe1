package delphi

import (
	"math"
	"testing"
)

// naiveOnline is the obviously-correct reference for Online: a plain slice
// window that shifts on every observation, predicting through the public
// Model.Predict path with the same envelope clamp. The mirrored ring in
// Online must be indistinguishable from it, bit for bit.
type naiveOnline struct {
	model    *Model
	win      []float64
	fallback bool
}

func (n *naiveOnline) observe(v float64) {
	n.win = append(n.win, v)
	if len(n.win) > WindowSize {
		copy(n.win, n.win[1:])
		n.win = n.win[:WindowSize]
	}
}

func (n *naiveOnline) predictState() (float64, float64, bool) {
	if len(n.win) < WindowSize || n.model == nil || n.fallback {
		if len(n.win) == 0 {
			return 0, 0, false
		}
		return n.win[len(n.win)-1], 0, false
	}
	p, err := n.model.Predict(n.win)
	if err != nil {
		return n.win[len(n.win)-1], 0, false
	}
	_, scale := NormalizeInto(make([]float64, len(n.win)), n.win)
	lo, hi := n.win[0], n.win[0]
	for _, v := range n.win[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if p > hi+span {
		p = hi + span
	}
	if p < lo-span {
		p = lo - span
	}
	return p, scale, true
}

// TestOnlineMatchesNaiveReference drives Online and the naive reference
// through the same seeded interleaving of observations, predictions, model
// swaps, fallback flips, and resets, across several seeds. Every prediction
// must agree bitwise (value, scale, and readiness) — the mirrored ring, the
// in-place normalization, and the fused engine may never drift from the
// shift-and-reallocate implementation.
func TestOnlineMatchesNaiveReference(t *testing.T) {
	m1, err := Train(TrainOptions{SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(TrainOptions{SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 6; seed++ {
		o := NewOnline(m1)
		ref := &naiveOnline{model: m1}
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53)
		}
		value := 100.0
		for step := 0; step < 4000; step++ {
			switch op := next(); {
			case op < 0.55: // observe a random-walk value
				value += (next() - 0.5) * 10
				o.Observe(value)
				ref.observe(value)
			case op < 0.85: // compare a prediction
				gv, gs, gok := o.PredictState()
				wv, ws, wok := ref.predictState()
				if gok != wok ||
					math.Float64bits(gv) != math.Float64bits(wv) ||
					math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("seed %d step %d: ring (%v,%v,%v) != naive (%v,%v,%v)",
						seed, step, gv, gs, gok, wv, ws, wok)
				}
			case op < 0.90: // toggle measured-only fallback
				on := next() < 0.5
				o.SetFallback(on)
				ref.fallback = on
			case op < 0.96: // promote the other model mid-stream
				m := m1
				if next() < 0.5 {
					m = m2
				}
				if err := o.SwapModel(m); err != nil {
					t.Fatalf("seed %d step %d: swap: %v", seed, step, err)
				}
				ref.model = m
			default: // start over with no history
				o = NewOnline(ref.model)
				o.SetFallback(ref.fallback)
				ref.win = ref.win[:0]
			}
			if o.Observed() != len(ref.win) {
				t.Fatalf("seed %d: observed %d != naive %d", seed, o.Observed(), len(ref.win))
			}
		}
	}
}
