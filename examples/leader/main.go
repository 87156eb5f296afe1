// Leader: the Node Availability use case of Table 1 row 9 — a leader
// election that consumes Apollo's availability insight instead of probing
// peers itself ("this metric can reduce the time to perform the election as
// Apollo already knows which nodes are online"). The example kills the
// current leader twice and shows re-election driven purely by telemetry.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/insights"
)

// elect picks the lexicographically first online node (a bully-style rule:
// everyone applies the same order, so everyone agrees without messaging).
func elect(av insights.NodeAvailability) (string, bool) {
	if len(av.Nodes) == 0 {
		return "", false
	}
	return av.Nodes[0], true
}

func main() {
	sim := cluster.BuildAres(time.Now(), 3, 1)
	svc := core.New(core.Config{Mode: core.IntervalFixed, Adaptive: fastPoll()})
	defer svc.Stop()
	availability, err := svc.DeployAvailabilityInsight(sim)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}

	// Watch the availability insight; re-elect whenever it changes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	updates, err := svc.Subscribe(ctx, availability)
	if err != nil {
		log.Fatal(err)
	}

	leader := ""
	electNow := func() {
		av := insights.AvailableNodes(sim)
		if l, ok := elect(av); ok && l != leader {
			leader = l
			fmt.Printf("elected leader %q from %v\n", leader, av.Nodes)
		}
	}
	electNow()

	// Fail the leader twice; the insight stream drives re-election.
	go func() {
		for i := 0; i < 2; i++ {
			time.Sleep(300 * time.Millisecond)
			fmt.Printf("-- killing leader %q --\n", leader)
			sim.Node(leader).SetOnline(false)
		}
	}()

	deaths := 0
	for in := range updates {
		// The insight value is the count of online nodes.
		fmt.Printf("availability update: %d nodes online (%s)\n", int(in.Value), in.Source)
		electNow()
		if int(in.Value) <= len(sim.Nodes())-2 {
			deaths++
			if deaths >= 2 {
				break
			}
		}
	}
	fmt.Printf("final leader: %q\n", leader)
}

func fastPoll() adaptive.Config {
	cfg := adaptive.DefaultConfig()
	cfg.Initial = 20 * time.Millisecond
	cfg.Min = 20 * time.Millisecond
	return cfg
}
