package delphi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/nn/inference"
)

// NumStacked is how many pre-trained feature models are stacked under the
// trainable combiner. The paper reports Delphi at 50 parameters total with
// 14 trainable; that pins the architecture to six frozen Dense(5,1) feature
// models (6 x 6 = 36 frozen) under a Dense(13,1) combiner (14 trainable)
// whose inputs are the six frozen predictions, the five normalized window
// values, the window mean, and the window slope. The two remaining features
// (random walk, constant) carry no learnable shape — the combiner's direct
// window taps cover them, which is what the paper's "trainable layer that
// could learn any other missing features" does.
const NumStacked = 6

// combinerInputs = 6 frozen predictions + 5 window values + mean + slope.
const combinerInputs = NumStacked + WindowSize + 2

// StackedFeatures returns the six features that get a dedicated frozen
// model, in stacking order.
func StackedFeatures() []Feature {
	return []Feature{TrendUp, TrendDown, Seasonal, LevelShift, Sawtooth, Spike}
}

// Model is the Delphi predictor: frozen per-feature models plus a trainable
// combiner.
type Model struct {
	features []*nn.Dense // frozen Dense(WindowSize,1) models
	combiner *nn.Dense   // trainable Dense(combinerInputs,1)

	engOnce sync.Once
	eng     *inference.Engine
	engErr  error
}

// ErrNotTrained is returned by Load/Predict paths on malformed models.
var ErrNotTrained = errors.New("delphi: model not trained")

// TrainOptions controls feature-model and combiner training.
type TrainOptions struct {
	// SeriesPerFeature is how many synthetic series each feature model is
	// trained on.
	SeriesPerFeature int
	// SeriesLen is the length of each synthetic series.
	SeriesLen int
	// Epochs per model.
	Epochs int
	// Noise level for synthetic data.
	Noise float64
	// Seed makes training deterministic.
	Seed int64
	// OnProgress, if set, receives a line per trained model.
	OnProgress func(msg string)
}

func (o *TrainOptions) fill() {
	if o.SeriesPerFeature == 0 {
		o.SeriesPerFeature = 8
	}
	if o.SeriesLen == 0 {
		o.SeriesLen = 256
	}
	if o.Epochs == 0 {
		o.Epochs = 40
	}
	if o.Noise == 0 {
		o.Noise = 0.2
	}
}

// Train builds a full Delphi model: first each feature model is trained on
// its own synthetic dataset and frozen, then the combiner is trained on a
// composite dataset "comprised of the different features" (§3.4.2). The six
// feature models share nothing — each has its own seed, dataset, layer and
// optimizer — so they are fitted side by side, as many at once as there are
// cores, and the weights do not depend on how they were scheduled.
func Train(opts TrainOptions) (*Model, error) {
	opts.fill()
	feats := StackedFeatures()
	m := &Model{features: make([]*nn.Dense, len(feats))}
	losses, errs := make([]float64, len(feats)), make([]error, len(feats))
	slots := make(chan struct{}, min(len(feats), runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for idx, f := range feats {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			m.features[idx], losses[idx], errs[idx] = fitFeature(f, idx, opts)
		}()
	}
	wg.Wait()
	for idx, f := range feats {
		if errs[idx] != nil {
			return nil, errs[idx]
		}
		if opts.OnProgress != nil {
			opts.OnProgress(fmt.Sprintf("feature model %-12s loss=%.5f", f, losses[idx]))
		}
	}
	// Combiner on the composite dataset.
	m.combiner = nn.NewDense(combinerInputs, opts.Seed+99)
	heads, err := inference.NewEngine(m.features, m.combiner)
	if err != nil {
		return nil, err
	}
	series := Composite(opts.SeriesPerFeature*opts.SeriesLen, opts.Noise, opts.Seed+7)
	wx, wy := Windows(series, WindowSize)
	loss, err := m.combiner.Fit(combinerRows(heads, wx), wy, nn.FitOptions{
		Epochs: opts.Epochs, LR: 0.01, Seed: opts.Seed + 99,
	})
	if err != nil {
		return nil, fmt.Errorf("delphi: training combiner: %w", err)
	}
	if opts.OnProgress != nil {
		opts.OnProgress(fmt.Sprintf("combiner loss=%.5f", loss))
	}
	return m, nil
}

// fitFeature trains the idx-th stacked feature model on its synthetic series
// and returns it frozen.
func fitFeature(f Feature, idx int, opts TrainOptions) (*nn.Dense, float64, error) {
	n := opts.SeriesPerFeature * max(opts.SeriesLen-WindowSize, 0)
	xs, ys := make([][]float64, 0, n), make([]float64, 0, n)
	for s := 0; s < opts.SeriesPerFeature; s++ {
		series := f.Generate(opts.SeriesLen, opts.Noise, opts.Seed+int64(idx*1000+s))
		wx, wy := Windows(series, WindowSize)
		xs = append(xs, wx...)
		ys = append(ys, wy...)
	}
	if len(xs) == 0 {
		return nil, 0, fmt.Errorf("delphi: no training windows for %s", f)
	}
	layer := nn.NewDense(WindowSize, opts.Seed+int64(idx))
	loss, err := layer.Fit(xs, ys, nn.FitOptions{
		Epochs: opts.Epochs, LR: 0.01, Seed: opts.Seed + int64(idx),
	})
	if err != nil {
		return nil, 0, fmt.Errorf("delphi: training %s model: %w", f, err)
	}
	layer.Frozen = true
	return layer, loss, nil
}

// combinerRows assembles the combiner's input for each normalized window —
// the six head outputs, the window, its mean and its slope — as views into
// one backing array. The head outputs are read where the fused engine leaves
// them: heads is any engine compiled over the model's frozen heads, whatever
// combiner it folds them with.
func combinerRows(heads *inference.Engine, windows [][]float64) [][]float64 {
	backing := make([]float64, len(windows)*combinerInputs)
	rows := make([][]float64, len(windows))
	for i, w := range windows {
		row := backing[i*combinerInputs : (i+1)*combinerInputs : (i+1)*combinerInputs]
		heads.Forward(w, row[:NumStacked])
		copy(row[NumStacked:], w)
		mean := 0.0
		for _, v := range w {
			mean += v
		}
		row[NumStacked+WindowSize] = mean / float64(len(w))
		row[NumStacked+WindowSize+1] = w[len(w)-1] - w[0]
		rows[i] = row
	}
	return rows
}

// Engine returns the fused zero-allocation inference engine compiled (once,
// lazily) from the frozen stack. The engine snapshots the weights, so it must
// be taken after training/loading completes; it is safe for concurrent use
// with caller-owned scratch.
func (m *Model) Engine() (*inference.Engine, error) {
	m.engOnce.Do(func() {
		if len(m.features) != NumStacked || m.combiner == nil {
			m.engErr = ErrNotTrained
			return
		}
		m.eng, m.engErr = inference.NewEngine(m.features, m.combiner)
	})
	return m.eng, m.engErr
}

// Predict forecasts the next value of a metric from its last WindowSize
// measurements (raw units; normalization is handled internally). It runs on
// the fused engine with stack scratch — no heap allocation, safe for
// concurrent callers — and is bit-identical to the layer-by-layer reference
// the tests keep (PredictUnfused in export_test.go).
func (m *Model) Predict(window []float64) (float64, error) {
	if len(window) != WindowSize {
		return 0, fmt.Errorf("delphi: window size %d, want %d", len(window), WindowSize)
	}
	eng, err := m.Engine()
	if err != nil {
		return 0, err
	}
	var norm [WindowSize]float64
	var scratch [NumStacked]float64
	loc, scale := NormalizeInto(norm[:], window)
	return eng.Forward(norm[:], scratch[:])*scale + loc, nil
}

// ParamCount reports (total, trainable) parameters: (50, 14).
func (m *Model) ParamCount() (total, trainable int) {
	layers := m.features
	if m.combiner != nil {
		layers = append(layers[:len(layers):len(layers)], m.combiner)
	}
	for _, d := range layers {
		n := len(d.W) + len(d.B)
		total += n
		if !d.Frozen {
			trainable += n
		}
	}
	return total, trainable
}

// Evaluate runs the model over a series and returns RMSE, MAE, and R2 of
// one-step-ahead predictions in raw units.
func (m *Model) Evaluate(series []float64) (rmse, mae, r2 float64, err error) {
	if len(series) <= WindowSize {
		return 0, 0, 0, errors.New("delphi: series too short to evaluate")
	}
	var preds, truth []float64
	for i := 0; i+WindowSize < len(series); i++ {
		p, err := m.Predict(series[i : i+WindowSize])
		if err != nil {
			return 0, 0, 0, err
		}
		preds = append(preds, p)
		truth = append(truth, series[i+WindowSize])
	}
	return scoreSeries(preds, truth)
}

// scoreSeries computes RMSE, MAE, R2 of predictions against truth.
func scoreSeries(preds, truth []float64) (rmse, mae, r2 float64, err error) {
	if len(preds) == 0 || len(preds) != len(truth) {
		return 0, 0, 0, errors.New("delphi: empty evaluation")
	}
	n := float64(len(preds))
	mean := 0.0
	for _, t := range truth {
		mean += t
	}
	mean /= n
	var sse, sae, sst float64
	for i := range preds {
		d := preds[i] - truth[i]
		sse += d * d
		if d < 0 {
			d = -d
		}
		sae += d
		t := truth[i] - mean
		sst += t * t
	}
	rmse = math.Sqrt(sse / n)
	mae = sae / n
	if sst == 0 {
		if sse == 0 {
			r2 = 1
		}
	} else {
		r2 = 1 - sse/sst
	}
	return rmse, mae, r2, nil
}

// Serialization ---------------------------------------------------------

type modelJSON struct {
	Features []denseJSON `json:"features"`
	Combiner denseJSON   `json:"combiner"`
}

type denseJSON struct {
	W []float64 `json:"w"`
	B []float64 `json:"b"`
}

// EncodeJSON serializes the model to its canonical JSON form. Go's float64
// encoding uses the shortest representation that round-trips exactly, so
// decode→re-encode is byte-stable and loaded weights are bit-identical to
// the saved ones — the model registry's CRC framing and its round-trip gate
// build on both properties.
func (m *Model) EncodeJSON() ([]byte, error) {
	if len(m.features) != NumStacked || m.combiner == nil {
		return nil, ErrNotTrained
	}
	var mj modelJSON
	for _, f := range m.features {
		mj.Features = append(mj.Features, denseJSON{W: f.W, B: f.B})
	}
	mj.Combiner = denseJSON{W: m.combiner.W, B: m.combiner.B}
	return json.Marshal(mj)
}

// DecodeJSON rebuilds a model from EncodeJSON output. Malformed payloads
// return errors wrapping ErrNotTrained; the decoder never panics.
func DecodeJSON(b []byte) (*Model, error) {
	var mj modelJSON
	if err := json.Unmarshal(b, &mj); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotTrained, err)
	}
	if len(mj.Features) != NumStacked {
		return nil, fmt.Errorf("%w: expected %d feature models, found %d", ErrNotTrained, NumStacked, len(mj.Features))
	}
	m := &Model{}
	for i, fj := range mj.Features {
		if len(fj.W) != WindowSize || len(fj.B) != 1 {
			return nil, fmt.Errorf("%w: feature %d shape", ErrNotTrained, i)
		}
		d := nn.NewDense(WindowSize, 0)
		copy(d.W, fj.W)
		copy(d.B, fj.B)
		d.Frozen = true
		m.features = append(m.features, d)
	}
	if len(mj.Combiner.W) != combinerInputs || len(mj.Combiner.B) != 1 {
		return nil, fmt.Errorf("%w: combiner shape", ErrNotTrained)
	}
	m.combiner = nn.NewDense(combinerInputs, 0)
	copy(m.combiner.W, mj.Combiner.W)
	copy(m.combiner.B, mj.Combiner.B)
	return m, nil
}

// Save writes the model to a JSON file.
func (m *Model) Save(path string) error {
	b, err := m.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a model saved with Save.
func Load(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeJSON(b)
}
