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
	m, v                  map[*float64][]float64
}

// NewAdam returns Adam with the canonical defaults for any zero field.
func NewAdam(lr float64) *Adam {
	if lr == 0 {
		lr = 1e-3
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*float64][]float64), v: make(map[*float64][]float64),
	}
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
	for _, l := range layers {
		if !l.Trainable() {
			continue
		}
		params, grads := l.Params(), l.Grads()
		for pi := range params {
			p, g := params[pi], grads[pi]
			if len(p) == 0 {
				continue
			}
			m, ok := a.m[&p[0]]
			if !ok {
				m = make([]float64, len(p))
				a.m[&p[0]] = m
			}
			v, ok := a.v[&p[0]]
			if !ok {
				v = make([]float64, len(p))
				a.v[&p[0]] = v
			}
			for i := range p {
				gi := g[i] * inv
				m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
				v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
				p[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Eps)
			}
		}
	}
}

var (
	_ Optimizer = (*Adam)(nil)
)
