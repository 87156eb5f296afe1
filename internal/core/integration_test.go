package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/delphi"
	"repro/internal/hooks"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestEndToEndObservatory drives the whole system the way apollod does:
// a simulated cluster under a bursty workload, full monitor deployment,
// capacity and availability insight cascades, live subscriptions, AQE
// queries, and a TCP client — all on the real clock.
func TestEndToEndObservatory(t *testing.T) {
	sim := cluster.BuildAres(time.Now(), 2, 2)
	svc := New(Config{Mode: IntervalSimpleAIMD, Adaptive: fastAIMD()})
	defer svc.Stop()

	var metricCount int
	for _, n := range sim.Nodes() {
		ids, err := svc.DeployNodeMonitors(n)
		if err != nil {
			t.Fatal(err)
		}
		metricCount += len(ids)
	}
	capSink, err := svc.DeployTierCapacityInsights(sim)
	if err != nil {
		t.Fatal(err)
	}
	availSink, err := svc.DeployAvailabilityInsight(sim)
	if err != nil {
		t.Fatal(err)
	}
	// Ping monitors between every pair of three nodes (Table 1 row 6).
	net := []string{"comp00", "stor00", "stor01"}
	for i := range net {
		for j := i + 1; j < len(net); j++ {
			if _, err := svc.RegisterMetric(hooks.Ping(sim, net[i], net[j])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Bursty workload so telemetry moves.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		d := sim.Node("comp00").Device("nvme0")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			d.Write(int64(i), 1<<20)
			sim.Step(5 * time.Millisecond)
		}
	}()

	// 1. The capacity cascade converges to the cluster's total remaining
	// capacity (which is shrinking under the workload).
	waitFor(t, func() bool {
		in, ok := svc.Latest(capSink)
		return ok && in.Value > 0 && in.Kind == telemetry.KindInsight
	})

	// 2. Node availability reacts to a failure.
	waitFor(t, func() bool {
		in, ok := svc.Latest(availSink)
		return ok && in.Value == 4
	})
	sim.Node("stor01").SetOnline(false)
	waitFor(t, func() bool {
		in, ok := svc.Latest(availSink)
		return ok && in.Value == 3
	})

	// 3. The §4.4.1 resource query runs against live vertices.
	res, err := svc.Query(fmt.Sprintf(
		"SELECT MAX(Timestamp), metric FROM %s UNION SELECT MAX(Timestamp), metric FROM comp00.nvme0.capacity UNION SELECT MAX(Timestamp), metric FROM %s",
		capSink, availSink))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}

	// 4. Live subscription delivers decoded tuples.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	sub, err := svc.Subscribe(ctx, "comp00.nvme0.capacity")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-sub:
		if in.Metric != "comp00.nvme0.capacity" {
			t.Fatalf("sub delivered %v", in)
		}
	case <-ctx.Done():
		t.Fatal("subscription starved")
	}

	// 5. A remote TCP client reads the same fabric.
	client, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	names, err := client.Topics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < metricCount {
		t.Fatalf("remote topics=%d < metrics=%d", len(names), metricCount)
	}
}

func fastAIMD() adaptive.Config {
	cfg := adaptive.DefaultConfig()
	cfg.Initial = 2 * time.Millisecond
	cfg.Min = 2 * time.Millisecond
	cfg.Max = 50 * time.Millisecond
	cfg.AdditiveStep = 2 * time.Millisecond
	return cfg
}

// TestEndToEndDelphiPipeline checks that a Delphi-equipped service publishes
// predicted tuples between polls when the adaptive interval relaxes. It polls
// on a virtual clock, advanced by each interval the controller hands back.
func TestEndToEndDelphiPipeline(t *testing.T) {
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 10, SeriesPerFeature: 2, SeriesLen: 120})
	if err != nil {
		t.Fatal(err)
	}
	// A trending metric polled with a controller that immediately relaxes.
	cfg := adaptive.DefaultConfig()
	cfg.Initial = 4 * time.Millisecond
	cfg.Min = 4 * time.Millisecond
	cfg.Max = 40 * time.Millisecond
	cfg.AdditiveStep = 8 * time.Millisecond
	cfg.Threshold = 1e18 // everything counts as stable -> interval stretches
	clock := sim.NewVirtual(time.Unix(0, 0))
	svc := New(Config{
		Clock:    clock,
		Mode:     IntervalSimpleAIMD,
		Adaptive: cfg,
		Delphi:   model,
		BaseTick: 4 * time.Millisecond,
	})
	defer svc.Stop()
	trace := workloads.HACCRegular(40*time.Minute, 250e9)
	hook := &replayForever{trace: trace}
	v, err := svc.RegisterMetric(hookFunc("cap", hook.poll))
	if err != nil {
		t.Fatal(err)
	}
	for poll := 0; poll < 4*delphi.WindowSize; poll++ {
		clock.Advance(v.PollOnce())
	}
	for _, in := range scan(svc, "cap", 0, 1<<62) {
		if in.Source == telemetry.Predicted {
			return // predicted tuple made it into the queue
		}
	}
	t.Fatal("no predicted tuples were published")
}

type replayForever struct {
	trace []float64
	pos   int
}

func (r *replayForever) poll() (float64, error) {
	v := r.trace[r.pos%len(r.trace)]
	r.pos++
	return v, nil
}

func hookFunc(id telemetry.MetricID, fn func() (float64, error)) telemetryHook {
	return telemetryHook{id: id, fn: fn}
}

type telemetryHook struct {
	id telemetry.MetricID
	fn func() (float64, error)
}

func (h telemetryHook) Metric() telemetry.MetricID { return h.id }
func (h telemetryHook) Poll() (float64, error)     { return h.fn() }
