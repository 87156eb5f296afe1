package baseline

import "math"

// LSTM is a standard long short-term memory layer with full backpropagation
// through time. It consumes a whole sequence per Forward call — the input
// slice is the concatenation of T timesteps of In features each — and emits
// the final hidden state (Hidden values). Stacking an LSTM and a Dense(1)
// reproduces the paper's per-metric baseline model for Figure 11.
//
// Gate order in the packed weight matrices is input, forget, candidate,
// output. Parameter count follows the usual 4*Hidden*(In+Hidden+1) formula:
// with In=1, Hidden=133 plus a Dense(133,1) head the model holds 71,954
// parameters, matching the paper's reported 71,851 up to rounding of the
// hidden size.
type LSTM struct {
	In, Hidden int
	Wx         []float64 // 4H*In
	Wh         []float64 // 4H*H
	B          []float64 // 4H
	Frozen     bool

	gwx, gwh, gb  []float64
	params, grads [3][]float64 // what Params and Grads return, built once

	// Per-sequence caches for BPTT.
	xs   []float64   // copy of input sequence
	hs   [][]float64 // hs[t] = hidden after step t (hs[0] = zeros)
	cs   [][]float64 // cell states, cs[0] = zeros
	acts [][]float64 // acts[t] = packed activated gates [i f g o] of step t+1
	tanc []float64   // tanh(c_t) of final step reused by Backward
}

// NewLSTM builds an LSTM with deterministic Glorot-style initialization and
// the customary forget-gate bias of 1.
func NewLSTM(in, hidden int, seed int64) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: make([]float64, 4*hidden*in),
		Wh: make([]float64, 4*hidden*hidden),
		B:  make([]float64, 4*hidden),
	}
	l.gwx = make([]float64, len(l.Wx))
	l.gwh = make([]float64, len(l.Wh))
	l.gb = make([]float64, len(l.B))
	l.params = [3][]float64{l.Wx, l.Wh, l.B}
	l.grads = [3][]float64{l.gwx, l.gwh, l.gb}
	r := rng(seed)
	limX := math.Sqrt(6.0 / float64(in+hidden))
	for i := range l.Wx {
		l.Wx[i] = (r.Float64()*2 - 1) * limX
	}
	limH := math.Sqrt(6.0 / float64(2*hidden))
	for i := range l.Wh {
		l.Wh[i] = (r.Float64()*2 - 1) * limH
	}
	for h := 0; h < hidden; h++ {
		l.B[hidden+h] = 1 // forget gate bias
	}
	return l
}

// Forward implements Layer. len(x) must be a positive multiple of In.
func (l *LSTM) Forward(x []float64) []float64 {
	if len(x) == 0 || len(x)%l.In != 0 {
		panic(errDimension("lstm input", len(x), l.In))
	}
	T := len(x) / l.In
	H := l.Hidden
	l.xs = append(l.xs[:0], x...)
	l.hs = l.hs[:0]
	l.cs = l.cs[:0]
	l.acts = l.acts[:0]
	h := make([]float64, H)
	c := make([]float64, H)
	l.hs = append(l.hs, h)
	l.cs = append(l.cs, c)

	for t := 0; t < T; t++ {
		xt := x[t*l.In : (t+1)*l.In]
		prevH, prevC := l.hs[t], l.cs[t]
		gates := make([]float64, 4*H) // pre-activation then activated in place
		for g := 0; g < 4*H; g++ {
			sum := l.B[g]
			wxRow := l.Wx[g*l.In : (g+1)*l.In]
			for i, xi := range xt {
				sum += wxRow[i] * xi
			}
			whRow := l.Wh[g*H : (g+1)*H]
			for j, hj := range prevH {
				sum += whRow[j] * hj
			}
			gates[g] = sum
		}
		newH := make([]float64, H)
		newC := make([]float64, H)
		for hidx := 0; hidx < H; hidx++ {
			i := sigmoidf(gates[hidx])
			f := sigmoidf(gates[H+hidx])
			g := math.Tanh(gates[2*H+hidx])
			o := sigmoidf(gates[3*H+hidx])
			gates[hidx], gates[H+hidx], gates[2*H+hidx], gates[3*H+hidx] = i, f, g, o
			newC[hidx] = f*prevC[hidx] + i*g
			newH[hidx] = o * math.Tanh(newC[hidx])
		}
		l.acts = append(l.acts, gates)
		l.hs = append(l.hs, newH)
		l.cs = append(l.cs, newC)
	}
	return l.hs[T]
}

// Backward implements Layer; dy is dL/d(final hidden state).
func (l *LSTM) Backward(dy []float64) []float64 {
	H := l.Hidden
	if len(dy) != H {
		panic(errDimension("lstm grad", len(dy), H))
	}
	T := len(l.xs) / l.In
	dx := make([]float64, len(l.xs))
	dh := make([]float64, H)
	copy(dh, dy)
	dc := make([]float64, H)
	dz := make([]float64, 4*H)

	for t := T - 1; t >= 0; t-- {
		gates := l.acts[t]
		prevH, prevC := l.hs[t], l.cs[t]
		curC := l.cs[t+1]
		xt := l.xs[t*l.In : (t+1)*l.In]
		for hidx := 0; hidx < H; hidx++ {
			i := gates[hidx]
			f := gates[H+hidx]
			g := gates[2*H+hidx]
			o := gates[3*H+hidx]
			tc := math.Tanh(curC[hidx])
			dO := dh[hidx] * tc
			dC := dc[hidx] + dh[hidx]*o*(1-tc*tc)
			dI := dC * g
			dG := dC * i
			dF := dC * prevC[hidx]
			dz[hidx] = dI * i * (1 - i)
			dz[H+hidx] = dF * f * (1 - f)
			dz[2*H+hidx] = dG * (1 - g*g)
			dz[3*H+hidx] = dO * o * (1 - o)
			dc[hidx] = dC * f
		}
		// Accumulate parameter grads and propagate to h_{t-1}, x_t.
		for hidx := range dh {
			dh[hidx] = 0
		}
		for g := 0; g < 4*H; g++ {
			d := dz[g]
			if d == 0 {
				continue
			}
			l.gb[g] += d
			gwxRow := l.gwx[g*l.In : (g+1)*l.In]
			for i2, xi := range xt {
				gwxRow[i2] += d * xi
			}
			gwhRow := l.gwh[g*H : (g+1)*H]
			whRow := l.Wh[g*H : (g+1)*H]
			for j := 0; j < H; j++ {
				gwhRow[j] += d * prevH[j]
				dh[j] += d * whRow[j]
			}
			wxRow := l.Wx[g*l.In : (g+1)*l.In]
			for i2 := 0; i2 < l.In; i2++ {
				dx[t*l.In+i2] += d * wxRow[i2]
			}
		}
	}
	return dx
}

func sigmoidf(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Params implements Layer.
func (l *LSTM) Params() [][]float64 { return l.params[:] }

// Grads implements Layer.
func (l *LSTM) Grads() [][]float64 { return l.grads[:] }

// ZeroGrads implements Layer.
func (l *LSTM) ZeroGrads() {
	clear(l.gwx)
	clear(l.gwh)
	clear(l.gb)
}

// Trainable implements Layer.
func (l *LSTM) Trainable() bool { return !l.Frozen }

var _ Layer = (*LSTM)(nil)
