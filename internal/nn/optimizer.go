package nn

import (
	"math"
	"sync"
	"sync/atomic"
)

// Adam is the Adam optimizer (Kingma & Ba) with the canonical β1 = 0.9,
// β2 = 0.999 and ε = 1e-8.
type Adam struct {
	lr float64
	t  int
	// m and v are the moments: one slice per parameter slice, in the order
	// Step is handed them. A frozen slice holds a (nil) slot, so freezing one
	// between steps shifts nobody else's moments. An Adam serves one model.
	m, v [][]float64
}

// The decay rates and the denominator's floor.
const beta1, beta2, epsilon = 0.9, 0.999, 1e-8

// NewAdam returns Adam at learning rate lr, or 1e-3 for 0.
func NewAdam(lr float64) *Adam {
	if lr == 0 {
		lr = 1e-3
	}
	return &Adam{lr: lr}
}

// Step moves every params[k] against its gradient grads[k], scaled by
// 1/batchSize. A nil grads[k] marks a frozen slice: it keeps its moment slot
// and does not move. Hand an Adam the same slices in the same order on every
// step.
func (a *Adam) Step(params, grads [][]float64, batchSize int) {
	inv := 1.0 / float64(max(batchSize, 1))
	a.t++
	c1, c2 := bias1.at(a.t), bias2.at(a.t)
	// float64 variables, so that 1 − β rounds as float64 arithmetic does: on
	// the untyped constants it would be exact, and another number.
	b1, b2, lr, eps := float64(beta1), float64(beta2), a.lr, float64(epsilon)
	for k, p := range params {
		if k == len(a.m) {
			a.m, a.v = append(a.m, nil), append(a.v, nil)
		}
		g := grads[k]
		if g == nil {
			continue
		}
		if a.m[k] == nil {
			a.m[k], a.v[k] = make([]float64, len(p)), make([]float64, len(p))
		}
		m, v := a.m[k], a.v[k]
		for i := range p {
			gi := g[i] * inv
			m[i] = b1*m[i] + (1-b1)*gi
			v[i] = b2*v[i] + (1-b2)*gi*gi
			p[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
		}
	}
}

// maxBiasSteps caps a bias-correction table; a later step computes its
// correction with math.Pow, as the table would have. 16 384 steps are
// 128 KiB per β. The largest fit in the repository, a Delphi combiner on
// delphi-train's data, takes 7 500 steps, which the table, doubling, holds in
// 8 192 (64 KiB per β).
const maxBiasSteps = 1 << 14

// biasTable holds Adam's bias corrections 1 − β^t, t = 1, 2, …, of one β.
// Each is computed with math.Pow once per process, and every fit reads it
// back instead: the same bits for a fraction of the cost. The table only
// grows — a longer copy, written under mu, replaces the published one — so a
// step reads it without a lock.
type biasTable struct {
	beta float64
	mu   sync.Mutex
	vals atomic.Pointer[[]float64] // vals[t-1] = 1 − β^t
}

// bias1 and bias2 are the process-wide tables of β1 and β2.
var bias1, bias2 = &biasTable{beta: beta1}, &biasTable{beta: beta2}

// at returns 1 − β^t for t ≥ 1.
func (b *biasTable) at(t int) float64 {
	if vals := b.vals.Load(); vals != nil && t <= len(*vals) {
		return (*vals)[t-1]
	}
	if t > maxBiasSteps {
		return 1 - math.Pow(b.beta, float64(t))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var vals []float64
	if p := b.vals.Load(); p != nil {
		vals = *p
	}
	if t > len(vals) {
		grown := make([]float64, min(max(t, 2*len(vals), 64), maxBiasSteps))
		copy(grown, vals)
		for i := len(vals); i < len(grown); i++ {
			grown[i] = 1 - math.Pow(b.beta, float64(i+1))
		}
		b.vals.Store(&grown)
		vals = grown
	}
	return vals[t-1]
}
