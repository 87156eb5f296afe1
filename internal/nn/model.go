package nn

import (
	"encoding/json"
	"fmt"
)

// Sequential chains layers into a model trained with MSE loss. Training works
// in scratch the model and its layers own — after the first batch a step
// allocates nothing — so one Sequential trains on one goroutine at a time.
type Sequential struct {
	Layers []Layer

	dy []float64 // loss gradient of the sample in hand
}

// NewSequential builds a model from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Predict runs a forward pass. The result is the last layer's (see
// Layer.Forward): valid until the model next predicts or trains.
func (m *Sequential) Predict(x []float64) []float64 {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict1 runs a forward pass on a model with a single output.
func (m *Sequential) Predict1(x []float64) float64 { return m.Predict(x)[0] }

// TrainBatch performs one optimizer step over the batch with MSE loss and
// returns the mean loss. xs[i] must match the first layer's input size and
// ys[i] the last layer's output size.
func (m *Sequential) TrainBatch(xs, ys [][]float64, opt Optimizer) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrEmptyDataset
	}
	for _, l := range m.Layers {
		l.ZeroGrads()
	}
	loss := 0.0
	for i := range xs {
		pred := m.Predict(xs[i])
		if len(pred) != len(ys[i]) {
			return 0, errDimension("target", len(ys[i]), len(pred))
		}
		if cap(m.dy) < len(pred) {
			m.dy = make([]float64, len(pred))
		}
		dy := m.dy[:len(pred)]
		for j := range pred {
			diff := pred[j] - ys[i][j]
			loss += diff * diff
			dy[j] = 2 * diff / float64(len(pred))
		}
		for li := len(m.Layers) - 1; li >= 0; li-- {
			dy = m.Layers[li].Backward(dy)
		}
	}
	opt.Step(m.Layers, len(xs))
	return loss / float64(len(xs)), nil
}

// FitOptions controls Fit.
type FitOptions struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Shuffle permutes sample order each epoch with the given seed.
	Shuffle bool
	Seed    int64
	// OnEpoch, if set, receives (epoch, meanLoss) after each epoch.
	OnEpoch func(epoch int, loss float64)
}

// Fit trains the model for the configured epochs and returns the final
// epoch's mean loss. A model that is one trainable *Dense — every Delphi head
// and combiner — trains each batch in Dense.fitBatch, one loop over the rows
// in place; any other stack gathers the batch and calls TrainBatch. Both do
// the same arithmetic in the same order, so the weights are bit-identical.
func (m *Sequential) Fit(xs, ys [][]float64, opts FitOptions) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrEmptyDataset
	}
	if opts.Epochs < 1 {
		opts.Epochs = 1
	}
	if opts.BatchSize < 1 {
		opts.BatchSize = 32
	}
	if opts.Optimizer == nil {
		opts.Optimizer = NewAdam(1e-3)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	r := rng(opts.Seed)
	swap := func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }
	var lone *Dense
	if len(m.Layers) == 1 {
		if d, ok := m.Layers[0].(*Dense); ok && !d.Frozen {
			lone = d
		}
	}
	var bx, by [][]float64
	var last float64
	for e := 0; e < opts.Epochs; e++ {
		if opts.Shuffle {
			r.Shuffle(len(idx), swap)
		}
		total, batches := 0.0, 0
		for start := 0; start < len(idx); start += opts.BatchSize {
			batch := idx[start:min(start+opts.BatchSize, len(idx))]
			var loss float64
			var err error
			if lone != nil {
				if loss, err = lone.fitBatch(xs, ys, batch); err == nil {
					opts.Optimizer.Step(m.Layers, len(batch))
					loss /= float64(len(batch))
				}
			} else {
				bx, by = bx[:0], by[:0]
				for _, i := range batch {
					bx = append(bx, xs[i])
					by = append(by, ys[i])
				}
				loss, err = m.TrainBatch(bx, by, opts.Optimizer)
			}
			if err != nil {
				return 0, err
			}
			total += loss
			batches++
		}
		last = total / float64(batches)
		if opts.OnEpoch != nil {
			opts.OnEpoch(e, last)
		}
	}
	return last, nil
}

// ParamCount reports (total, trainable) parameters.
func (m *Sequential) ParamCount() (int, int) { return ParamCount(m.Layers) }

// Serialization -------------------------------------------------------------

type layerJSON struct {
	Type   string    `json:"type"` // "dense" or "lstm"
	In     int       `json:"in"`
	Out    int       `json:"out"`
	Act    string    `json:"act,omitempty"`
	Frozen bool      `json:"frozen,omitempty"`
	W      []float64 `json:"w,omitempty"`
	B      []float64 `json:"b,omitempty"`
	Wx     []float64 `json:"wx,omitempty"`
	Wh     []float64 `json:"wh,omitempty"`
}

type modelJSON struct {
	Layers []layerJSON `json:"layers"`
}

// MarshalJSON implements json.Marshaler.
func (m *Sequential) MarshalJSON() ([]byte, error) {
	out := modelJSON{}
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, layerJSON{
				Type: "dense", In: v.In, Out: v.Out, Act: v.Act.Name(),
				Frozen: v.Frozen, W: v.W, B: v.B,
			})
		case *LSTM:
			out.Layers = append(out.Layers, layerJSON{
				Type: "lstm", In: v.In, Out: v.Hidden,
				Frozen: v.Frozen, Wx: v.Wx, Wh: v.Wh, B: v.B,
			})
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Sequential) UnmarshalJSON(b []byte) error {
	var in modelJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	m.Layers = nil
	for _, lj := range in.Layers {
		switch lj.Type {
		case "dense":
			act, err := ActivationByName(lj.Act)
			if err != nil {
				return err
			}
			d := NewDense(lj.In, lj.Out, act, 0)
			if len(lj.W) != lj.In*lj.Out || len(lj.B) != lj.Out {
				return fmt.Errorf("nn: dense weight shape mismatch")
			}
			copy(d.W, lj.W)
			copy(d.B, lj.B)
			d.Frozen = lj.Frozen
			m.Layers = append(m.Layers, d)
		case "lstm":
			l := NewLSTM(lj.In, lj.Out, 0)
			if len(lj.Wx) != len(l.Wx) || len(lj.Wh) != len(l.Wh) || len(lj.B) != len(l.B) {
				return fmt.Errorf("nn: lstm weight shape mismatch")
			}
			copy(l.Wx, lj.Wx)
			copy(l.Wh, lj.Wh)
			copy(l.B, lj.B)
			l.Frozen = lj.Frozen
			m.Layers = append(m.Layers, l)
		default:
			return fmt.Errorf("nn: unknown layer type %q", lj.Type)
		}
	}
	return nil
}
