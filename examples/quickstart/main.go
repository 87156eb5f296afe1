// Quickstart: monitor one metric with Apollo, derive an insight, and query
// it through the Apollo Query Engine — the minimal end-to-end path a
// middleware library follows.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/telemetry"
)

func main() {
	// A fake NVMe whose free capacity shrinks as an application writes.
	var freeBytes atomic.Int64
	freeBytes.Store(250 << 30)

	svc := core.New(core.Config{
		// The adaptive parameterized method: poll faster while the metric
		// moves, relax while it is quiet (§3.4.1 of the paper).
		Mode: core.IntervalComplexAIMD,
		Adaptive: func() adaptive.Config {
			cfg := adaptive.DefaultConfig()
			cfg.Initial = 50 * time.Millisecond
			cfg.Min = 50 * time.Millisecond
			cfg.Max = 2 * time.Second
			cfg.AdditiveStep = 50 * time.Millisecond
			return cfg
		}(),
	})

	// Fact Vertices hook into resources.
	if _, err := svc.RegisterMetric(score.HookFunc{
		ID: "node1.nvme0.capacity",
		Fn: func() (float64, error) { return float64(freeBytes.Load()), nil },
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.RegisterMetric(score.HookFunc{
		ID: "node2.nvme0.capacity",
		Fn: func() (float64, error) { return 100 << 30, nil },
	}); err != nil {
		log.Fatal(err)
	}
	// Insight Vertices combine Facts into high-level knowledge.
	if _, err := svc.RegisterInsight(
		"tier.nvme.remaining",
		[]telemetry.MetricID{"node1.nvme0.capacity", "node2.nvme0.capacity"},
		score.Sum,
	); err != nil {
		log.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}
	defer svc.Stop()

	// A bursty writer consumes capacity.
	go func() {
		r := rand.New(rand.NewSource(1))
		for {
			time.Sleep(time.Duration(50+r.Intn(400)) * time.Millisecond)
			freeBytes.Add(-int64(r.Intn(1 << 28)))
		}
	}()

	// Middleware can subscribe to the live insight stream...
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	sub, err := svc.Subscribe(ctx, "tier.nvme.remaining")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("live insight stream:")
	n := 0
	for in := range sub {
		fmt.Printf("  %s\n", in)
		if n++; n >= 5 {
			break
		}
	}
	cancel()

	// ...or ask point questions through the query engine.
	res, err := svc.Query(`
		SELECT MAX(Timestamp), metric FROM tier.nvme.remaining
		UNION
		SELECT MAX(Timestamp), metric FROM node1.nvme0.capacity`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresource query:")
	fmt.Printf("  %v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %s  %s\n", row[0], row[1])
	}
}
