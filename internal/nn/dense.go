package nn

import "math"

// Dense is a fully-connected layer y = act(Wx + b). Setting Frozen marks the
// layer untrainable, which is how Delphi stacks its pre-trained feature
// models with fixed weights (§3.4.2). W and B are allocated by NewDense;
// write their elements, never replace the slices (Params hands out the views
// made at construction).
type Dense struct {
	In, Out int
	W       []float64 // Out*In, row-major: W[o*In+i]
	B       []float64 // Out
	Act     Activation
	Frozen  bool

	gw, gb []float64 // gradient accumulators
	x      []float64 // copy of the last input: the caller's slice is not kept
	y      []float64 // activated output, the slice Forward returns
	dx     []float64 // input gradient, the slice Backward returns

	params, grads [2][]float64 // what Params and Grads return, built once
}

// NewDense builds a dense layer with Glorot-uniform initialization from the
// given seed (deterministic for reproducibility).
func NewDense(in, out int, act Activation, seed int64) *Dense {
	if act == nil {
		act = Identity
	}
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, out*in), B: make([]float64, out),
		Act: act,
		gw:  make([]float64, out*in), gb: make([]float64, out),
		x: make([]float64, in), y: make([]float64, out), dx: make([]float64, in),
	}
	d.params = [2][]float64{d.W, d.B}
	d.grads = [2][]float64{d.gw, d.gb}
	r := rng(seed)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (r.Float64()*2 - 1) * limit
	}
	return d
}

// Forward implements Layer. It caches input and output for Backward and
// returns the layer's own output buffer, overwritten by the next Forward;
// concurrent read-only inference calls ForwardInto instead.
func (d *Dense) Forward(x []float64) []float64 {
	d.ForwardInto(d.y, x)
	copy(d.x, x)
	return d.y
}

// ForwardInto computes y = act(Wx + b) into dst without allocating and
// without touching the training caches, so it is safe for concurrent
// read-only inference over a frozen layer. dst must have length Out and may
// not alias x. The accumulation order is identical to Forward, so outputs
// are bit-identical.
func (d *Dense) ForwardInto(dst, x []float64) {
	if len(x) != d.In {
		panic(errDimension("dense input", len(x), d.In))
	}
	if len(dst) != d.Out {
		panic(errDimension("dense output", len(dst), d.Out))
	}
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		dst[o] = d.Act.Apply(sum)
	}
}

// Backward implements Layer. The returned gradient is the layer's own buffer,
// overwritten by the next Backward.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic(errDimension("dense grad", len(dy), d.Out))
	}
	dx := d.dx
	clear(dx)
	for o := 0; o < d.Out; o++ {
		dz := dy[o] * d.Act.DerivFromOutput(d.y[o])
		d.gb[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += dz * d.x[i]
			dx[i] += dz * row[i]
		}
	}
	return dx
}

// fitBatch is TrainBatch for a model that is this one layer, over the rows
// batch indexes: it clears the gradients, accumulates each sample's in batch
// order and returns the summed squared error, leaving the optimizer step and
// the mean to Fit. Every floating-point operation is one that Forward, the
// loss and Backward do, in their order — an output's loss and gradient need
// only its own activation, so they follow its dot product directly. What it
// drops is the gather into a batch, the calls through Layer per sample, the
// input copy and the input gradient that no layer below reads.
func (d *Dense) fitBatch(xs, ys [][]float64, batch []int) (float64, error) {
	d.ZeroGrads()
	loss := 0.0
	if d.Out == 1 && d.Act == Identity {
		loss, batch = d.fitBatch4(xs, ys, batch)
	}
	for _, s := range batch {
		x, y := xs[s], ys[s]
		if len(x) != d.In {
			panic(errDimension("dense input", len(x), d.In))
		}
		if len(y) != d.Out {
			return 0, errDimension("target", len(y), d.Out)
		}
		for o := 0; o < d.Out; o++ {
			sum := d.B[o]
			row := d.W[o*d.In : (o+1)*d.In]
			for i, xi := range x {
				sum += row[i] * xi
			}
			out := d.Act.Apply(sum)
			diff := out - y[o]
			loss += diff * diff
			dz := 2 * diff / float64(d.Out) * d.Act.DerivFromOutput(out)
			d.gb[o] += dz
			grow := d.gw[o*d.In : (o+1)*d.In]
			for i, xi := range x {
				grow[i] += dz * xi
			}
		}
	}
	return loss, nil
}

// fitBatch4 is fitBatch's loop for In → 1 with Identity, the shape of every
// Delphi head and combiner, over the leading samples of batch four at a time.
// A dot product is a chain of dependent adds, so the four chains run side by
// side, each from the bias left to right, and then the four losses and
// gradients are added in sample order: no sum is split or reordered. Dividing
// 2·diff by Out = 1 and multiplying by Identity's derivative 1 are exact, so
// dz is 2·diff. It returns the summed loss and the samples it left — fewer
// than four, or from the first four holding a row of the wrong length on.
func (d *Dense) fitBatch4(xs, ys [][]float64, batch []int) (float64, []int) {
	w, gw, b := d.W, d.gw[:len(d.W)], d.B[0]
	var gb, loss float64
	for len(batch) >= 4 {
		x0, x1, x2, x3 := xs[batch[0]], xs[batch[1]], xs[batch[2]], xs[batch[3]]
		y0, y1, y2, y3 := ys[batch[0]], ys[batch[1]], ys[batch[2]], ys[batch[3]]
		if len(x0) != len(w) || len(x1) != len(w) || len(x2) != len(w) || len(x3) != len(w) ||
			len(y0) != 1 || len(y1) != 1 || len(y2) != 1 || len(y3) != 1 {
			break
		}
		batch = batch[4:]
		x0, x1, x2, x3 = x0[:len(w)], x1[:len(w)], x2[:len(w)], x3[:len(w)]
		s0, s1, s2, s3 := b, b, b, b
		for i, wi := range w {
			s0 += wi * x0[i]
			s1 += wi * x1[i]
			s2 += wi * x2[i]
			s3 += wi * x3[i]
		}
		// Go adds left to right, so each line below is four += in sample
		// order; a += of the four terms' sum would reorder it.
		e0, e1, e2, e3 := s0-y0[0], s1-y1[0], s2-y2[0], s3-y3[0]
		loss = loss + e0*e0 + e1*e1 + e2*e2 + e3*e3
		z0, z1, z2, z3 := 2*e0, 2*e1, 2*e2, 2*e3
		gb = gb + z0 + z1 + z2 + z3
		for i := range gw {
			gw[i] = gw[i] + z0*x0[i] + z1*x1[i] + z2*x2[i] + z3*x3[i]
		}
	}
	d.gb[0] = gb
	return loss, batch
}

// Params implements Layer.
func (d *Dense) Params() [][]float64 { return d.params[:] }

// Grads implements Layer.
func (d *Dense) Grads() [][]float64 { return d.grads[:] }

// ZeroGrads implements Layer.
func (d *Dense) ZeroGrads() {
	clear(d.gw)
	clear(d.gb)
}

// Trainable implements Layer.
func (d *Dense) Trainable() bool { return !d.Frozen }

// InSize implements Layer.
func (d *Dense) InSize() int { return d.In }

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.Out }

var _ Layer = (*Dense)(nil)
