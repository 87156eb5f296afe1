package figures

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// publishFact publishes one measured fact to the broker.
func publishFact(bus *stream.Broker, id telemetry.MetricID, ts int64, v float64) error {
	b, err := telemetry.NewFact(id, ts, v).MarshalBinary()
	if err != nil {
		return err
	}
	_, err = bus.Publish(context.Background(), string(id), b)
	return err
}

// waitValue polls an executor until its latest value matches want (within
// 1e-9) and returns the elapsed time. It yields rather than sleeps between
// polls: a sub-millisecond sleep can last a whole millisecond once the
// runtime parks, which is larger than the latency being measured.
func waitValue(ex score.Executor, want float64, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for time.Since(start) < timeout {
		if in, ok := ex.Latest(); ok {
			d := in.Value - want
			if d < 1e-9 && d > -1e-9 {
				return time.Since(start), nil
			}
		}
		runtime.Gosched()
	}
	return 0, fmt.Errorf("figures: value %g never arrived within %v", want, timeout)
}

// median returns the middle of lats, so one round that pays a goroutine's
// first wake-up does not stand for the whole series.
func median(lats []time.Duration) time.Duration {
	slices.Sort(lats)
	return lats[len(lats)/2]
}

// Fig7a reproduces the node-degree study (§4.2.4): one Insight Curator
// subscribes to degree-many Fact Curators (the paper deploys 40 per node on
// 1..16 nodes). The client's latency to pull a new Insight grows with the
// degree until an upper bound.
func Fig7a(opts Options) (*Table, error) {
	t := &Table{
		ID:      "7a",
		Title:   "Insight pull latency vs node degree (40 fact curators per node)",
		Columns: []string{"nodes", "degree", "latency_us"},
	}
	nodeCounts := []int{1, 2, 4, 8, 16}
	perNode := 40
	if opts.Quick {
		nodeCounts = []int{1, 4}
		perNode = 10
	}
	// Rounds cost tens of microseconds each, so quick mode keeps all 20: a
	// median of fewer is one scheduler hiccup away from reordering the rows.
	rounds := 20
	for _, nodes := range nodeCounts {
		degree := nodes * perNode
		bus := stream.NewBroker(1 << 12)
		inputs := make([]telemetry.MetricID, degree)
		for i := range inputs {
			inputs[i] = telemetry.MetricID(fmt.Sprintf("fact%04d", i))
			// Topics must exist before the insight subscribes.
			if err := publishFact(bus, inputs[i], 0, 0); err != nil {
				return nil, err
			}
		}
		iv, err := score.NewInsightVertex(score.InsightConfig{
			Metric:  "agg",
			Inputs:  inputs,
			Builder: score.Sum,
			Bus:     bus,
			Clock:   sim.Wall{},
		})
		if err != nil {
			return nil, err
		}
		if err := iv.Start(); err != nil {
			return nil, err
		}
		var lats []time.Duration
		for r := 1; r <= rounds; r++ {
			// Update every input; the insight must converge to the new sum.
			want := float64(r * degree)
			for _, id := range inputs {
				if err := publishFact(bus, id, int64(r), float64(r)); err != nil {
					return nil, err
				}
			}
			lat, err := waitValue(iv, want, 10*time.Second)
			if err != nil {
				return nil, err
			}
			lats = append(lats, lat)
		}
		iv.Stop()
		bus.Close()
		t.AddRow(fmt.Sprint(nodes), fmt.Sprint(degree), f(float64(median(lats).Nanoseconds())/1e3))
	}
	t.Notes = append(t.Notes,
		"paper: latency increases with node degree until an upper bound; handling facts is much cheaper than monitoring",
		fmt.Sprintf("latency_us is the median of %d rounds", rounds))
	return t, nil
}

// Fig7b reproduces the Hamming-distance study: 32 hooks feed a chain of
// insight-curator layers (1..32); a client pulls from the top. Latency
// grows with distance, with a spike at the maximum depth.
func Fig7b(opts Options) (*Table, error) {
	t := &Table{
		ID:      "7b",
		Title:   "Insight pull latency vs Hamming distance (insight layer depth)",
		Columns: []string{"layers", "latency_us"},
	}
	depths := []int{1, 2, 4, 8, 16, 32}
	if opts.Quick {
		depths = []int{1, 4, 8}
	}
	sources := opts.pick(8, 32)
	rounds := 20 // as in Fig7a
	for _, depth := range depths {
		bus := stream.NewBroker(1 << 12)
		srcIDs := make([]telemetry.MetricID, sources)
		for i := range srcIDs {
			srcIDs[i] = telemetry.MetricID(fmt.Sprintf("hook%02d", i))
			if err := publishFact(bus, srcIDs[i], 0, 0); err != nil {
				return nil, err
			}
		}
		var layers []*score.InsightVertex
		prevInputs := srcIDs
		for l := 0; l < depth; l++ {
			id := telemetry.MetricID(fmt.Sprintf("layer%02d", l))
			iv, err := score.NewInsightVertex(score.InsightConfig{
				Metric:  id,
				Inputs:  prevInputs,
				Builder: score.Sum,
				Bus:     bus,
				Clock:   sim.Wall{},
			})
			if err != nil {
				return nil, err
			}
			layers = append(layers, iv)
			prevInputs = []telemetry.MetricID{id}
		}
		// Start sinks first so no layer misses upstream publications.
		for i := len(layers) - 1; i >= 0; i-- {
			if err := layers[i].Start(); err != nil {
				return nil, err
			}
		}
		sink := layers[len(layers)-1]
		var lats []time.Duration
		for r := 1; r <= rounds; r++ {
			want := float64(r * sources) // each layer sums a single input upward
			for _, id := range srcIDs {
				if err := publishFact(bus, id, int64(r), float64(r)); err != nil {
					return nil, err
				}
			}
			lat, err := waitValue(sink, want, 10*time.Second)
			if err != nil {
				return nil, err
			}
			lats = append(lats, lat)
		}
		for _, l := range layers {
			l.Stop()
		}
		bus.Close()
		t.AddRow(fmt.Sprint(depth), f(float64(median(lats).Nanoseconds())/1e3))
	}
	t.Notes = append(t.Notes,
		"paper: latency increases with Hamming distance and spikes at the maximum depth",
		fmt.Sprintf("latency_us is the median of %d rounds", rounds))
	return t, nil
}
