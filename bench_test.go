// Package repro's root benchmarks regenerate every figure of the paper
// (via internal/figures) under `go test -bench`, plus the ablation benches
// DESIGN.md calls out and the headline sub-millisecond insight-access
// latency. Figures run their scaled-down "quick" parameters here so a full
// -bench=. pass stays in minutes; `cmd/apollo-bench -all` runs the full
// parameters.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/delphi"
	"repro/internal/figures"
	"repro/internal/nn"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// benchFigure runs one figure generator once per bench iteration.
func benchFigure(b *testing.B, id string) {
	g, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	opts := figures.Options{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Fn(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Insights(b *testing.B)          { benchFigure(b, "t1") }
func BenchmarkFig3cDelphiVerification(b *testing.B) { benchFigure(b, "3c") }
func BenchmarkFig4OperationAnatomy(b *testing.B)    { benchFigure(b, "4") }
func BenchmarkFig5Overhead(b *testing.B)            { benchFigure(b, "5") }
func BenchmarkFig6aPublish(b *testing.B)            { benchFigure(b, "6a") }
func BenchmarkFig6bSubscribe(b *testing.B)          { benchFigure(b, "6b") }
func BenchmarkFig7aNodeDegree(b *testing.B)         { benchFigure(b, "7a") }
func BenchmarkFig7bHammingDistance(b *testing.B)    { benchFigure(b, "7b") }
func BenchmarkFig8AIMD(b *testing.B)                { benchFigure(b, "8") }
func BenchmarkFig9IrregularHACC(b *testing.B)       { benchFigure(b, "9") }
func BenchmarkFig10RegularHACC(b *testing.B)        { benchFigure(b, "10") }
func BenchmarkFig11DelphiVsLSTM(b *testing.B)       { benchFigure(b, "11") }
func BenchmarkFig12aLatencyScaling(b *testing.B)    { benchFigure(b, "12a") }
func BenchmarkFig12bQueryComplexity(b *testing.B)   { benchFigure(b, "12b") }
func BenchmarkFig12cCPUOverhead(b *testing.B)       { benchFigure(b, "12c") }
func BenchmarkFig13aPlacement(b *testing.B)         { benchFigure(b, "13a") }
func BenchmarkFig13bPrefetching(b *testing.B)       { benchFigure(b, "13b") }
func BenchmarkFig13cReplication(b *testing.B)       { benchFigure(b, "13c") }

// BenchmarkInsightAccessLatency measures the headline claim: acquiring a
// complex insight from Apollo takes well under a millisecond (§4.2.1 /
// abstract "sub-millisecond latency for acquiring complex insights").
func BenchmarkInsightAccessLatency(b *testing.B) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	svc := core.New(core.Config{Clock: clock})
	var vertices []*score.FactVertex
	inputs := make([]telemetry.MetricID, 8)
	for i := range inputs {
		id := telemetry.MetricID(fmt.Sprintf("node%d.capacity", i))
		inputs[i] = id
		v, err := svc.RegisterMetric(score.HookFunc{ID: id, Fn: func() (float64, error) { return 100, nil }})
		if err != nil {
			b.Fatal(err)
		}
		vertices = append(vertices, v)
	}
	if _, err := svc.RegisterInsight("tier.capacity", inputs, score.Sum); err != nil {
		b.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		b.Fatal(err)
	}
	defer svc.Stop()
	for _, v := range vertices {
		v.PollOnce()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := svc.Latest("tier.capacity"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	q := "SELECT MAX(Timestamp), metric FROM tier.capacity"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: AIMD rolling-average window size (DESIGN.md §4).
func BenchmarkAblationAIMDWindow(b *testing.B) {
	trace := workloads.HACCIrregular(10*time.Minute, 250e9, 42)
	for _, window := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			cfg := adaptive.DefaultConfig()
			cfg.Threshold = 0
			cfg.Window = window
			ctrl, err := adaptive.NewComplexAIMD(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var res adaptive.Result
			for i := 0; i < b.N; i++ {
				res = adaptive.Evaluate(trace, ctrl, time.Second, 0)
			}
			b.ReportMetric(res.Cost(), "cost")
			b.ReportMetric(res.Accuracy(), "accuracy")
		})
	}
}

// Ablation: the future-work permutation-entropy heuristic (§6) vs the
// shipped complex AIMD on the irregular HACC trace.
func BenchmarkAblationEntropyHeuristic(b *testing.B) {
	trace := workloads.HACCIrregular(10*time.Minute, 250e9, 42)
	cfg := adaptive.DefaultConfig()
	cfg.Threshold = 0
	complexC, err := adaptive.NewComplexAIMD(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := cfg
	ecfg.Threshold = 0.05 // entropy-delta units
	entropyC, err := adaptive.NewEntropyAIMD(ecfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ctrl adaptive.Controller
	}{{"complex-aimd", complexC}, {"entropy", entropyC}} {
		b.Run(c.name, func(b *testing.B) {
			var res adaptive.Result
			for i := 0; i < b.N; i++ {
				res = adaptive.Evaluate(trace, c.ctrl, time.Second, 0)
			}
			b.ReportMetric(res.Cost(), "cost")
			b.ReportMetric(res.Accuracy(), "accuracy")
		})
	}
}

// Ablation: Delphi's frozen feature stack vs a plain trainable dense model
// of the same input shape.
func BenchmarkAblationDelphiStack(b *testing.B) {
	trace := workloads.SARSeries(workloads.MetricTPS, "nvme", 600, 3)
	train, test := trace[:300], trace[300:]

	b.Run("stacked", func(b *testing.B) {
		var r2 float64
		for i := 0; i < b.N; i++ {
			m, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 15, SeriesPerFeature: 3, SeriesLen: 150})
			if err != nil {
				b.Fatal(err)
			}
			_, _, r2, err = m.Evaluate(test)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r2, "r2")
	})
	b.Run("plain-dense", func(b *testing.B) {
		var r2 float64
		for i := 0; i < b.N; i++ {
			m := nn.NewSequential(nn.NewDense(delphi.WindowSize, 1, nn.Identity, 1))
			xs, ys := delphi.Windows(train, delphi.WindowSize)
			targets := make([][]float64, len(ys))
			for j, y := range ys {
				targets[j] = []float64{y}
			}
			if _, err := m.Fit(xs, targets, nn.FitOptions{Epochs: 15, BatchSize: 32, Optimizer: nn.NewAdam(0.01), Shuffle: true}); err != nil {
				b.Fatal(err)
			}
			// Score on the held-out tail in raw units.
			var preds, truth []float64
			for j := 0; j+delphi.WindowSize < len(test); j++ {
				w := test[j : j+delphi.WindowSize]
				norm := make([]float64, len(w))
				loc, scale := delphi.NormalizeInto(norm, w)
				preds = append(preds, m.Predict1(norm)*scale+loc)
				truth = append(truth, test[j+delphi.WindowSize])
			}
			var sse, sst, mean float64
			for _, t := range truth {
				mean += t
			}
			mean /= float64(len(truth))
			for j := range truth {
				d := preds[j] - truth[j]
				sse += d * d
				t := truth[j] - mean
				sst += t * t
			}
			if sst > 0 {
				r2 = 1 - sse/sst
			}
		}
		b.ReportMetric(r2, "r2")
	})
}

// Ablation: in-process broker vs TCP loopback transport.
func BenchmarkAblationTransport(b *testing.B) {
	payload := make([]byte, 16)
	b.Run("in-proc", func(b *testing.B) {
		br := stream.NewBroker(1 << 12)
		defer br.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := br.Publish(context.Background(), "t", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		br := stream.NewBroker(1 << 12)
		defer br.Close()
		srv, err := stream.Serve(br, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, err := stream.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Publish(context.Background(), "t", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the only-if-changed publish filter (§3.2.1) on a mostly-static
// metric.
func BenchmarkAblationChangeFilter(b *testing.B) {
	for _, unchanged := range []bool{false, true} {
		name := "filter-on"
		if unchanged {
			name = "filter-off"
		}
		b.Run(name, func(b *testing.B) {
			bus := stream.NewBroker(1 << 12)
			defer bus.Close()
			v, err := score.NewFactVertex(score.FactConfig{
				Hook:             score.HookFunc{ID: "m", Fn: func() (float64, error) { return 42, nil }},
				Bus:              bus,
				Controller:       adaptive.NewFixed(time.Second),
				Clock:            sim.NewVirtual(time.Unix(0, 0)),
				PublishUnchanged: unchanged,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				v.PollOnce()
			}
			st := v.Stats()
			b.ReportMetric(float64(st.Published), "published")
			b.ReportMetric(float64(st.Suppressed), "suppressed")
		})
	}
}

// BenchmarkSubscribeDelivery measures delivery latency through the in-process
// Pub-Sub fabric: one publish to a reader parked in its cursor. Two goroutines
// play ping-pong over two topics; an op is one delivery.
func BenchmarkSubscribeDelivery(b *testing.B) {
	br := stream.NewBroker(1 << 14)
	defer br.Close()
	ctx := context.Background()
	ping, _ := br.Follow(ctx, "ping", 0)
	pong, _ := br.Follow(ctx, "pong", 0)
	payload := make([]byte, 16)
	go func() {
		for _, err := ping.Next(); err == nil; _, err = ping.Next() {
			br.Publish(ctx, "pong", payload)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		if _, err := br.Publish(ctx, "ping", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := pong.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
