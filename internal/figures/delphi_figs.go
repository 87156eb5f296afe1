package figures

import (
	"fmt"
	"math"
	"time"

	"repro/internal/delphi"
	"repro/internal/nn"
	"repro/internal/nn/baseline"
	"repro/internal/workloads"
)

// trainDelphi trains a Delphi model sized to the options.
func trainDelphi(opts Options) (*delphi.Model, time.Duration, error) {
	t0 := time.Now()
	m, err := delphi.Train(delphi.TrainOptions{
		Seed:             opts.Seed + 1,
		Epochs:           opts.pick(15, 60),
		SeriesPerFeature: opts.pick(3, 10),
		SeriesLen:        opts.pick(150, 400),
	})
	return m, time.Since(t0), err
}

// inferenceCost times one model prediction: the least per-call mean over
// several batches, because a preemption or another process's load can only
// add time to a batch, never take it away.
func inferenceCost(predict func()) time.Duration {
	const batches, reps = 8, 250
	best := time.Duration(math.MaxInt64)
	for range batches {
		t0 := time.Now()
		for range reps {
			predict()
		}
		best = min(best, time.Since(t0)/reps)
	}
	return best
}

// Fig3c reproduces the Delphi verification: a model trained only on simple
// synthetic datasets predicts metrics it has not been trained for. The
// paper plots inference cost on the y-axis with bubble size = MAE.
func Fig3c(opts Options) (*Table, error) {
	model, trainTime, err := trainDelphi(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "3c",
		Title:   "Delphi verification: inference cost and MAE per test dataset",
		Columns: []string{"dataset", "inference_us", "mae", "r2"},
		Notes:   []string{fmt.Sprintf("delphi training time: %v", trainTime)},
	}
	n := opts.pick(300, 2000)
	for _, feat := range delphi.Features() {
		series := feat.Generate(n, 0.1, opts.Seed+100+int64(feat))
		_, mae, r2, err := model.Evaluate(series)
		if err != nil {
			return nil, err
		}
		cost := inferenceCost(func() { model.Predict(series[:delphi.WindowSize]) })
		t.AddRow(feat.String(), f(float64(cost.Nanoseconds())/1e3), f(mae), f(r2))
	}
	// Plus the I/O metrics of the x-axis: SAR series per device class.
	for _, dev := range []string{"nvme", "ssd", "hdd"} {
		series := workloads.SARSeries(workloads.MetricTPS, dev, n, opts.Seed+7)
		_, mae, r2, err := model.Evaluate(series)
		if err != nil {
			return nil, err
		}
		cost := inferenceCost(func() { model.Predict(series[:delphi.WindowSize]) })
		t.AddRow(dev+"-tps", f(float64(cost.Nanoseconds())/1e3), f(mae), f(r2))
	}
	return t, nil
}

// Fig11 compares Delphi (50 parameters, trained once on synthetic features)
// against per-metric LSTM baselines (~71.9k parameters each, trained on
// their specific SAR metric). The paper reports RMSE (bubble size), R^2
// (color), and inference time (y-axis), plus 15 min vs 3-5 h training.
func Fig11(opts Options) (*Table, error) {
	model, delphiTrain, err := trainDelphi(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "11",
		Title:   "Delphi vs per-metric LSTM: RMSE, R2, inference time, params, train time",
		Columns: []string{"metric", "model", "params", "train", "inference_us", "rmse", "r2"},
	}
	hidden := opts.pick(32, 133)
	epochs := opts.pick(4, 6)
	trainN := opts.pick(200, 600)
	testN := opts.pick(200, 1200)

	metrics := []workloads.SARMetric{workloads.MetricTPS, workloads.MetricAwait, workloads.MetricUtil}
	devices := []string{"nvme"}
	if !opts.Quick {
		metrics = workloads.SARMetrics()
		devices = []string{"nvme", "ssd", "hdd"}
	}
	delphiTotal, delphiTrainable := model.ParamCount()
	row := 0
	for _, dev := range devices {
		for _, m := range metrics {
			row++
			name := dev + "." + m.String()
			series := workloads.SARSeries(m, dev, trainN+testN, opts.Seed+int64(row))
			trainSeries, testSeries := series[:trainN], series[trainN:]

			// Per-metric LSTM baseline, trained on its own metric with
			// global z-score normalization (a metric-specific model can fix
			// its scale; Delphi cannot and normalizes per window).
			lstm := baseline.NewSequential(
				baseline.NewLSTM(1, hidden, opts.Seed+int64(row)),
				baseline.NewDense(hidden, 1, opts.Seed+int64(row)+1),
			)
			mean, sd := seriesStats(trainSeries)
			xs, ys := globalWindows(trainSeries, mean, sd)
			t0 := time.Now()
			if _, err := lstm.Fit(xs, ys, nn.FitOptions{Epochs: epochs, LR: 2e-3, Seed: opts.Seed}); err != nil {
				return nil, err
			}
			lstmTrain := time.Since(t0)

			lstmRMSE, lstmR2 := evalGlobalRaw(lstm, testSeries, mean, sd)
			lstmCost := inferenceCost(func() { lstm.Predict(xs[0]) })
			total, _ := lstm.ParamCount()

			dRMSE, _, dR2, err := model.Evaluate(testSeries)
			if err != nil {
				return nil, err
			}
			dCost := inferenceCost(func() { model.Predict(testSeries[:delphi.WindowSize]) })

			t.AddRow(name, "lstm", fmt.Sprint(total), lstmTrain.Round(time.Millisecond).String(),
				f(float64(lstmCost.Nanoseconds())/1e3), f(lstmRMSE), f(lstmR2))
			t.AddRow(name, "delphi", fmt.Sprint(delphiTotal), delphiTrain.Round(time.Millisecond).String(),
				f(float64(dCost.Nanoseconds())/1e3), f(dRMSE), f(dR2))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("delphi params: %d total / %d trainable (paper: 50/14); lstm hidden=%d", delphiTotal, delphiTrainable, hidden),
		"lstm trained for few epochs to bound runtime; the paper's 3-5h baselines train to convergence")
	return t, nil
}

// seriesStats returns mean and standard deviation.
func seriesStats(s []float64) (mean, sd float64) {
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	for _, v := range s {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(s)))
	if sd == 0 {
		sd = 1
	}
	return mean, sd
}

// globalWindows builds (window, next) pairs in global z-score space.
func globalWindows(series []float64, mean, sd float64) (xs, ys [][]float64) {
	norm := make([]float64, len(series))
	for i, v := range series {
		norm[i] = (v - mean) / sd
	}
	for i := 0; i+delphi.WindowSize < len(norm); i++ {
		xs = append(xs, norm[i:i+delphi.WindowSize])
		ys = append(ys, []float64{norm[i+delphi.WindowSize]})
	}
	return xs, ys
}

// evalGlobalRaw scores a globally-normalized model against the raw series.
func evalGlobalRaw(m *baseline.Sequential, series []float64, mean, sd float64) (rmse, r2 float64) {
	norm := make([]float64, len(series))
	for i, v := range series {
		norm[i] = (v - mean) / sd
	}
	var preds, truth []float64
	for i := 0; i+delphi.WindowSize < len(norm); i++ {
		preds = append(preds, m.Predict1(norm[i:i+delphi.WindowSize])*sd+mean)
		truth = append(truth, series[i+delphi.WindowSize])
	}
	return scoreRaw(preds, truth)
}

// scoreRaw computes RMSE and R2 of predictions against truth.
func scoreRaw(preds, truth []float64) (rmse, r2 float64) {
	if len(preds) == 0 {
		return 0, 0
	}
	var sse, sst, mean float64
	for _, y := range truth {
		mean += y
	}
	mean /= float64(len(truth))
	for i := range truth {
		d := preds[i] - truth[i]
		sse += d * d
		tt := truth[i] - mean
		sst += tt * tt
	}
	rmse = math.Sqrt(sse / float64(len(truth)))
	if sst > 0 {
		r2 = 1 - sse/sst
	} else if sse == 0 {
		r2 = 1
	}
	return rmse, r2
}
