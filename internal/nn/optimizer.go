package nn

import (
	"math"
	"sync"
	"sync/atomic"
)

// Optimizer applies accumulated gradients to trainable layers.
type Optimizer interface {
	// Step updates parameters from gradients scaled by 1/batchSize, then
	// the caller is expected to zero the gradients.
	Step(layers []Layer, batchSize int)
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	// m and v are the moments: one slice per parameter slice, in the order
	// Step walks them. Frozen layers hold a (nil) slot, so freezing a layer
	// between steps shifts nobody else's moments. An Adam serves one model.
	m, v [][]float64
	// c1 and c2 are the bias-correction tables of Beta1 and Beta2.
	c1, c2 *biasTable
}

// NewAdam returns Adam with the canonical defaults for any zero field.
func NewAdam(lr float64) *Adam {
	if lr == 0 {
		lr = 1e-3
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(layers []Layer, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := 1.0 / float64(batchSize)
	a.t++
	a.c1, a.c2 = tableFor(a.c1, a.Beta1), tableFor(a.c2, a.Beta2)
	c1, c2 := a.c1.at(a.t), a.c2.at(a.t)
	k := 0 // moment slot
	for _, l := range layers {
		params, grads := l.Params(), l.Grads()
		for pi, p := range params {
			if k == len(a.m) {
				a.m, a.v = append(a.m, nil), append(a.v, nil)
			}
			if l.Trainable() {
				if a.m[k] == nil {
					a.m[k], a.v[k] = make([]float64, len(p)), make([]float64, len(p))
				}
				m, v, g := a.m[k], a.v[k], grads[pi]
				for i := range p {
					gi := g[i] * inv
					m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
					v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
					p[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Eps)
				}
			}
			k++
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
// Each is computed with math.Pow once per process, and every fit with that β
// reads it back instead: the same bits for a fraction of the cost. The table
// only grows — a longer copy, written under mu, replaces the published one —
// so a step reads it without a lock.
type biasTable struct {
	beta float64
	mu   sync.Mutex
	vals atomic.Pointer[[]float64] // vals[t-1] = 1 − β^t
}

// biasTables holds the table of each β a step has used, keyed by its bits.
var biasTables = struct {
	sync.Mutex
	m map[uint64]*biasTable
}{m: map[uint64]*biasTable{}}

// tableFor returns the table of beta: tab itself when it already serves it.
func tableFor(tab *biasTable, beta float64) *biasTable {
	bits := math.Float64bits(beta)
	if tab != nil && math.Float64bits(tab.beta) == bits {
		return tab
	}
	biasTables.Lock()
	defer biasTables.Unlock()
	if biasTables.m[bits] == nil {
		biasTables.m[bits] = &biasTable{beta: beta}
	}
	return biasTables.m[bits]
}

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

var (
	_ Optimizer = (*Adam)(nil)
)
