package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// FaultKind classifies one injected fault in a Schedule. The kinds map onto
// the chaos hooks the transport and pipeline layers already expose: conn
// drops and partitions drive the store-and-forward / reconnect paths, broker
// stalls drive backpressure, slow disks drive hook-latency and AIMD
// reaction.
type FaultKind int

const (
	// ConnDrop kills the next publish with a transient transport error
	// (a single mid-stream connection reset).
	ConnDrop FaultKind = iota
	// Partition makes the broker unreachable (every op fails transiently)
	// for the event's Duration.
	Partition
	// BrokerStall makes every broker op succeed but take the event's
	// Duration of (virtual) time — a slow, not dead, fabric.
	BrokerStall
	// SlowDisk makes the monitored resource slow: hook polls spend the
	// event's Duration and report perturbed values, the storage-failure
	// signature the AIMD controller must react to.
	SlowDisk
	// LeaderKill crashes the fabric node currently holding a topic's leader
	// lease; a follower must promote itself (after the lease lapses) and
	// catch up before serving. Only GenerateFabric draws this kind — the
	// single-broker Generate keeps its original four so seeded schedules
	// (and the transcripts derived from them) stay stable.
	LeaderKill
	// PublishCancelled ends a producer's context while its publish is between
	// the leader's local append and the followers' answers; every replica
	// must still end up with the batch, or none. Neither generator draws it:
	// it is a step of scenario.RunFabric's fixed matrix.
	PublishCancelled
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case ConnDrop:
		return "conn-drop"
	case Partition:
		return "partition"
	case BrokerStall:
		return "broker-stall"
	case SlowDisk:
		return "slow-disk"
	case LeaderKill:
		return "leader-kill"
	case PublishCancelled:
		return "publish-cancelled"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Event is one timed fault.
type Event struct {
	// At is the virtual-time offset from scenario start.
	At time.Duration
	// Kind is the fault class.
	Kind FaultKind
	// Duration is how long window faults (Partition, BrokerStall, SlowDisk)
	// last; zero for point faults (ConnDrop).
	Duration time.Duration
}

// String renders the event for transcripts: "+1m30s partition 10s".
func (e Event) String() string {
	if e.Duration > 0 {
		return fmt.Sprintf("+%s %s %s", e.At, e.Kind, e.Duration)
	}
	return fmt.Sprintf("+%s %s", e.At, e.Kind)
}

// Schedule is a seeded, replayable sequence of timed faults, sorted by At.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Generate draws a deterministic schedule of n fault events spread across
// horizon. The same (seed, n, horizon) always yields the same schedule;
// window faults last between 1% and 10% of the horizon. Events are placed in
// the first 80% of the horizon so their recovery windows fit inside it.
func Generate(seed int64, n int, horizon time.Duration) Schedule {
	return generate(seed, n, horizon, 4)
}

// GenerateFabric draws a deterministic schedule for a replicated broker
// fabric: the four single-broker kinds plus LeaderKill. It is a separate
// generator — not a widened Generate — so existing seeded schedules keep
// their exact event sequences.
func GenerateFabric(seed int64, n int, horizon time.Duration) Schedule {
	return generate(seed, n, horizon, 5)
}

func generate(seed int64, n int, horizon time.Duration, kinds int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed, Events: make([]Event, 0, n)}
	span := horizon * 8 / 10
	if span <= 0 {
		span = horizon
	}
	for i := 0; i < n; i++ {
		e := Event{
			At:   time.Duration(rng.Int63n(int64(span) + 1)),
			Kind: FaultKind(rng.Intn(kinds)),
		}
		if e.Kind != ConnDrop && e.Kind != LeaderKill {
			min := horizon / 100
			if min <= 0 {
				min = 1
			}
			e.Duration = min + time.Duration(rng.Int63n(int64(horizon/10-min)+1))
		}
		s.Events = append(s.Events, e)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// String renders the whole schedule as the replayable artifact recorded in
// failure reports: "seed=42: +1s conn-drop; +5s partition 2s; ...".
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("seed=%d: %s", s.Seed, strings.Join(parts, "; "))
}
