// Adaptive: replays the paper's HACC capacity traces (§4.3.1) through the
// three interval controllers and the Delphi-assisted pipeline, printing the
// cost/accuracy trade-off of Figures 8-10.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/adaptive"
	"repro/internal/delphi"
	"repro/internal/workloads"
)

func main() {
	const startCapacity = 250e9
	regular := workloads.HACCRegular(30*time.Minute, startCapacity)
	irregular := workloads.HACCIrregular(30*time.Minute, startCapacity, 42)

	cfg := adaptive.DefaultConfig()
	cfg.Threshold = 0 // any capacity change is significant
	mk := func(window int) adaptive.Controller {
		c := cfg
		c.Window = window
		ctrl, err := adaptive.NewComplexAIMD(c)
		if err != nil {
			log.Fatal(err)
		}
		return ctrl
	}
	simple, err := adaptive.NewSimpleAIMD(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cost = hook calls / 1s-equivalent; accuracy = seconds matching the 1s monitor")
	fmt.Printf("%-10s %-14s %8s %10s\n", "workload", "controller", "cost", "accuracy")
	for _, wl := range []struct {
		name  string
		trace []float64
	}{{"regular", regular}, {"irregular", irregular}} {
		for _, m := range []struct {
			name string
			ctrl adaptive.Controller
		}{
			{"fixed-5s", adaptive.NewFixed(5 * time.Second)},
			{"simple-aimd", simple},
			{"complex-aimd", mk(10)},
		} {
			res := adaptive.Evaluate(wl.trace, m.ctrl, time.Second, 0)
			fmt.Printf("%-10s %-14s %8.3f %10.3f\n", wl.name, m.name, res.Cost(), res.Accuracy())
		}
	}

	// Delphi fills the seconds the relaxed interval skips with predictions.
	fmt.Println("\ntraining delphi (50 parameters, 14 trainable)...")
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	total, trainable := model.ParamCount()
	fmt.Printf("delphi ready: %d params (%d trainable)\n", total, trainable)

	// Feed the last five polls and predict forward through a write gap.
	window := []float64{
		startCapacity - 0*38000,
		startCapacity - 1*38000,
		startCapacity - 2*38000,
		startCapacity - 3*38000,
		startCapacity - 4*38000,
	}
	pred, err := model.Predict(window)
	if err != nil {
		log.Fatal(err)
	}
	truth := startCapacity - 5*38000
	fmt.Printf("\nnext-write prediction: %.0f (truth %.0f)\n", pred, truth)
	fmt.Printf("prediction error: %.0f bytes = %.2f writes = %.2g%% of device capacity\n",
		pred-truth, (pred-truth)/38000, 100*(pred-truth)/startCapacity)
}
