package nn

import "math"

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
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
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

var (
	_ Optimizer = (*Adam)(nil)
)
