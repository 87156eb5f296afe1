package nn

import "math"

// Dense is a linear layer y = w·x + b from In inputs to one output: every
// Delphi feature head and combiner. Setting Frozen marks the layer
// untrainable, which is how Delphi stacks its pre-trained feature models with
// fixed weights (§3.4.2). W and B are allocated by NewDense; write their
// elements, never replace the slices (a training step updates the views made
// at construction).
type Dense struct {
	In     int
	W      []float64 // In
	B      []float64 // 1
	Frozen bool

	params, grads [2][]float64 // {W, B} and their gradient accumulators
}

// NewDense builds an In → 1 layer with Glorot-uniform initialization from the
// given seed (deterministic for reproducibility).
func NewDense(in int, seed int64) *Dense {
	d := &Dense{In: in, W: make([]float64, in), B: make([]float64, 1)}
	d.params = [2][]float64{d.W, d.B}
	d.grads = [2][]float64{make([]float64, in), make([]float64, 1)}
	r := rng(seed)
	limit := math.Sqrt(6.0 / float64(in+1))
	for i := range d.W {
		d.W[i] = (r.Float64()*2 - 1) * limit
	}
	return d
}

// Fit trains the layer on rows xs and their targets ys with MSE loss, in
// Loop, and returns the last epoch's mean loss. A frozen layer reports its
// loss and does not move.
func (d *Dense) Fit(xs [][]float64, ys []float64, opts FitOptions) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errDimension("targets", len(ys), len(xs))
	}
	return Loop(len(xs), opts, func(opt *Adam, batch []int) (float64, error) {
		return d.trainBatch(opt, xs, ys, batch)
	})
}

// trainBatch takes one optimizer step over the rows batch indexes and returns
// their mean squared error. It reads the rows in place and allocates nothing.
// The gradient accumulates in batch order, each sample's straight after its
// own dot product, as a forward and a backward pass per sample would.
//
// A dot product is a chain of dependent adds, so four samples at a time run
// their four chains side by side, each from the bias left to right; then the
// four losses and gradients are added in sample order, so no sum is split or
// reordered. The fewer than four samples left go one at a time.
func (d *Dense) trainBatch(opt *Adam, xs [][]float64, ys []float64, batch []int) (float64, error) {
	for _, s := range batch {
		if len(xs[s]) != d.In {
			return 0, errDimension("input", len(xs[s]), d.In)
		}
	}
	n := len(batch)
	w, b, gw := d.W, d.B[0], d.grads[0][:len(d.W)]
	clear(gw)
	var gb, loss float64
	for ; len(batch) >= 4; batch = batch[4:] {
		x0, x1, x2, x3 := xs[batch[0]][:len(w)], xs[batch[1]][:len(w)], xs[batch[2]][:len(w)], xs[batch[3]][:len(w)]
		s0, s1, s2, s3 := b, b, b, b
		for i, wi := range w {
			s0 += wi * x0[i]
			s1 += wi * x1[i]
			s2 += wi * x2[i]
			s3 += wi * x3[i]
		}
		// Go adds left to right, so each line below is four += in sample
		// order; a += of the four terms' sum would reorder it.
		e0, e1, e2, e3 := s0-ys[batch[0]], s1-ys[batch[1]], s2-ys[batch[2]], s3-ys[batch[3]]
		loss = loss + e0*e0 + e1*e1 + e2*e2 + e3*e3
		z0, z1, z2, z3 := 2*e0, 2*e1, 2*e2, 2*e3
		gb = gb + z0 + z1 + z2 + z3
		for i := range gw {
			gw[i] = gw[i] + z0*x0[i] + z1*x1[i] + z2*x2[i] + z3*x3[i]
		}
	}
	for _, s := range batch {
		x := xs[s][:len(w)]
		sum := b
		for i, wi := range w {
			sum += wi * x[i]
		}
		e := sum - ys[s]
		loss += e * e
		z := 2 * e
		gb += z
		for i := range gw {
			gw[i] += z * x[i]
		}
	}
	d.grads[1][0] = gb
	if !d.Frozen {
		opt.Step(d.params[:], d.grads[:], n)
	}
	return loss / float64(n), nil
}
