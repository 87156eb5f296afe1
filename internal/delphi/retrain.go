package delphi

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// ErrInsufficientData is returned by RetrainCombiner when the live series do
// not carry enough windows to train and validate a candidate.
var ErrInsufficientData = errors.New("delphi: insufficient data to retrain")

// The retraining policy.
const (
	// retrainMinSamples is the minimum number of training windows required
	// across all segments; below it RetrainCombiner returns
	// ErrInsufficientData rather than fit a combiner to noise.
	retrainMinSamples = 64
	// retrainMaxSamples keeps only the most recent values of each segment:
	// retraining should chase the live distribution, not re-memorize ancient
	// history.
	retrainMaxSamples = 512
	// retrainHoldoutFrac is the trailing fraction of each segment held out of
	// training and used to score base vs candidate. Trailing, because the
	// most recent data is the distribution the promoted model must serve.
	retrainHoldoutFrac = 0.25
	// The combiner fit.
	retrainEpochs       = 30
	retrainLearningRate = 0.01
	// retrainMinImprovement is how much lower (fractionally) the candidate's
	// holdout RMSE must be than the base model's to be declared improved:
	// promotion churn on statistical ties helps nobody.
	retrainMinImprovement = 0.05
)

// RetrainReport describes one retraining attempt. RMSEs are in normalized
// window space (unit-free), measured on the holdout slice both models never
// trained on.
type RetrainReport struct {
	TrainWindows   int
	HoldoutWindows int
	BaseRMSE       float64
	CandidateRMSE  float64
	// Improved is true when the candidate beat the base model by at least
	// 5 % on the holdout — the promotion criterion.
	Improved bool
}

// RetrainCombiner trains a candidate model against live telemetry: the
// frozen per-feature heads are kept (copied, so the candidate outlives a base
// model swapped out mid-train) and only the 14-parameter combiner is refit on
// windows drawn from the given measured series segments (one segment per
// metric of the device class — windows never straddle segment boundaries).
// The trailing quarter of every segment is held out; the candidate and the
// base model are both scored on it, and Report.Improved says whether the
// candidate earned promotion. seed makes the fit deterministic (shuffle
// order, weight init).
//
// The call runs beside a serving pipeline, so it leaves the allocator alone:
// it allocates the datasets' backing arrays and the candidate — on the order
// of a hundred objects whatever the sample count — and the fit itself
// nothing. It reads the base model only through its read-only fused engine
// and is safe to run while that model keeps serving predictions.
func RetrainCombiner(base *Model, segments [][]float64, seed int64) (*Model, RetrainReport, error) {
	var rep RetrainReport
	if base == nil || len(base.features) != NumStacked || base.combiner == nil {
		return nil, rep, ErrNotTrained
	}
	baseEng, err := base.Engine()
	if err != nil {
		return nil, rep, err
	}

	var trainX, holdX [][]float64
	var trainY, holdY []float64
	for _, seg := range segments {
		if len(seg) > retrainMaxSamples {
			seg = seg[len(seg)-retrainMaxSamples:]
		}
		xs, ys := Windows(seg, WindowSize)
		if len(xs) == 0 {
			continue
		}
		cut := len(xs) - int(math.Round(float64(len(xs))*retrainHoldoutFrac))
		if cut < 1 {
			cut = 1
		}
		if cut > len(xs) {
			cut = len(xs)
		}
		trainX = append(trainX, xs[:cut]...)
		trainY = append(trainY, ys[:cut]...)
		holdX = append(holdX, xs[cut:]...)
		holdY = append(holdY, ys[cut:]...)
	}
	if len(trainX) < retrainMinSamples || len(holdX) == 0 {
		return nil, rep, fmt.Errorf("%w: %d train / %d holdout windows, need >= %d / 1",
			ErrInsufficientData, len(trainX), len(holdX), retrainMinSamples)
	}
	rep.TrainWindows = len(trainX)
	rep.HoldoutWindows = len(holdX)

	// Candidate: private frozen-head copies under a freshly initialized
	// combiner.
	cand := &Model{features: make([]*nn.Dense, NumStacked)}
	for i, f := range base.features {
		d := nn.NewDense(WindowSize, 0)
		copy(d.W, f.W)
		copy(d.B, f.B)
		d.Frozen = true
		cand.features[i] = d
	}
	cand.combiner = nn.NewDense(combinerInputs, seed+101)

	// The candidate's heads are the base's, so the base engine supplies them.
	if _, err := cand.combiner.Fit(combinerRows(baseEng, trainX), trainY, nn.FitOptions{
		Epochs: retrainEpochs, LR: retrainLearningRate, Seed: seed,
	}); err != nil {
		return nil, rep, fmt.Errorf("delphi: retraining combiner: %w", err)
	}

	candEng, err := cand.Engine()
	if err != nil {
		return nil, rep, err
	}
	rep.BaseRMSE = holdoutRMSE(baseEng, holdX, holdY)
	rep.CandidateRMSE = holdoutRMSE(candEng, holdX, holdY)
	rep.Improved = rep.CandidateRMSE < rep.BaseRMSE*(1-retrainMinImprovement)
	return cand, rep, nil
}

// holdoutRMSE scores a fused engine on normalized (window, target) pairs.
func holdoutRMSE(eng interface {
	Forward(x, scratch []float64) float64
}, xs [][]float64, ys []float64) float64 {
	var scratch [NumStacked]float64
	var sse float64
	for i, w := range xs {
		d := eng.Forward(w, scratch[:]) - ys[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(xs)))
}
