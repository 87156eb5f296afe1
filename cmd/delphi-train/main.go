// Command delphi-train trains the Delphi predictive model (§3.4.2) on the
// synthetic time-series feature suite and writes it to disk for apollod,
// optionally verifying it against held-out feature datasets and SAR-style
// device metrics (the Figure 3c protocol).
//
// Usage:
//
//	delphi-train -out delphi.json -verify
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/delphi"
	"repro/internal/workloads"
)

func main() {
	var (
		out    = flag.String("out", "delphi.json", "output model path")
		epochs = flag.Int("epochs", 60, "training epochs per model")
		series = flag.Int("series", 10, "synthetic series per feature")
		length = flag.Int("len", 400, "length of each synthetic series")
		noise  = flag.Float64("noise", 0.2, "synthetic noise level")
		seed   = flag.Int64("seed", 1, "training seed")
		verify = flag.Bool("verify", false, "evaluate on held-out features and SAR metrics")
	)
	flag.Parse()
	if *epochs < 1 || *series < 1 || *length <= delphi.WindowSize {
		log.Fatalf("delphi-train: need -epochs >= 1, -series >= 1 and -len > %d", delphi.WindowSize)
	}

	t0 := time.Now()
	model, err := delphi.Train(delphi.TrainOptions{
		Epochs:           *epochs,
		SeriesPerFeature: *series,
		SeriesLen:        *length,
		Noise:            *noise,
		Seed:             *seed,
		OnProgress:       func(msg string) { log.Println(msg) },
	})
	if err != nil {
		log.Fatalf("delphi-train: %v", err)
	}
	total, trainable := model.ParamCount()
	// Each feature model sees every window of its -series series; the combiner
	// the windows of one composite series as long as all of them together.
	windows := delphi.NumStacked**series*(*length-delphi.WindowSize) + *series**length - delphi.WindowSize
	log.Printf("trained in %v: %d parameters (%d trainable) fitted on %d windows x %d epochs",
		time.Since(t0).Round(time.Millisecond), total, trainable, windows, *epochs)
	if err := model.Save(*out); err != nil {
		log.Fatalf("delphi-train: %v", err)
	}
	log.Printf("model written to %s", *out)

	if !*verify {
		return
	}
	fmt.Printf("%-14s %10s %10s %8s\n", "dataset", "rmse", "mae", "r2")
	for _, feat := range delphi.Features() {
		s := feat.Generate(1000, *noise, *seed+500+int64(feat))
		rmse, mae, r2, err := model.Evaluate(s)
		if err != nil {
			log.Fatalf("delphi-train: %v", err)
		}
		fmt.Printf("%-14s %10.4g %10.4g %8.3f\n", feat, rmse, mae, r2)
	}
	for _, dev := range []string{"nvme", "ssd", "hdd"} {
		for _, m := range workloads.SARMetrics() {
			s := workloads.SARSeries(m, dev, 1000, *seed+9)
			rmse, mae, r2, err := model.Evaluate(s)
			if err != nil {
				log.Fatalf("delphi-train: %v", err)
			}
			fmt.Printf("%-14s %10.4g %10.4g %8.3f\n", dev+"."+m.String(), rmse, mae, r2)
		}
	}
}
