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
