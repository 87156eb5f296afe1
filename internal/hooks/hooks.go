// Package hooks provides the monitor hooks that connect SCoRe Fact Vertices
// to resources: device capacity/bandwidth/health, node CPU/memory/power,
// and network ping against the simulated cluster, plus a cost-modeling
// wrapper that reproduces the dominant hook cost of the paper's operation
// anatomy (Fig. 4: 97.5% of Fact Vertex time is the monitor hook).
package hooks

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/insights"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// DeviceRemaining polls a device's free capacity in bytes.
func DeviceRemaining(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".capacity"),
		Fn: func() (float64, error) { return float64(d.Remaining()), nil },
	}
}

// DeviceBandwidth polls the observed bandwidth (bytes/s) of the last window.
func DeviceBandwidth(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".bw"),
		Fn: func() (float64, error) { return d.Snapshot().RealBW, nil },
	}
}

// DeviceInterference polls the Interference Factor (Table 1 row 2).
func DeviceInterference(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".interference"),
		Fn: func() (float64, error) { return insights.InterferenceFactor(d.Snapshot()), nil },
	}
}

// DeviceMSCA polls the Medium Sensitivity to Concurrent Access (row 1).
func DeviceMSCA(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".msca"),
		Fn: func() (float64, error) { return insights.MSCA(d.Snapshot()), nil },
	}
}

// DeviceHealth polls device health (row 5).
func DeviceHealth(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".health"),
		Fn: func() (float64, error) { return insights.DeviceHealth(d.Snapshot()), nil },
	}
}

// DeviceLoad polls device load (row 13).
func DeviceLoad(d *cluster.Device) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".load"),
		Fn: func() (float64, error) { return insights.DeviceLoad(d.Snapshot()), nil },
	}
}

// NodeCPU polls a node's CPU utilization in [0,1].
func NodeCPU(n *cluster.Node) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(n.ID + ".cpu"),
		Fn: func() (float64, error) { return n.CPULoad(), nil },
	}
}

// NodeMemUsed polls a node's used memory bytes.
func NodeMemUsed(n *cluster.Node) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(n.ID + ".mem"),
		Fn: func() (float64, error) {
			used, _ := n.Mem()
			return float64(used), nil
		},
	}
}

// NodePower polls a node's power draw in watts.
func NodePower(n *cluster.Node) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(n.ID + ".power"),
		Fn: func() (float64, error) { return n.PowerWatts(), nil },
	}
}

// NodeEnergyPerTransfer polls rows 11/14 for a node.
func NodeEnergyPerTransfer(n *cluster.Node) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(n.ID + ".energy_per_transfer"),
		Fn: func() (float64, error) { return insights.EnergyPerTransfer(n), nil },
	}
}

// NodeOnline polls liveness as 0/1 (feeds the Node Availability insight).
func NodeOnline(n *cluster.Node) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(n.ID + ".online"),
		Fn: func() (float64, error) {
			if n.Online() {
				return 1, nil
			}
			return 0, nil
		},
	}
}

// Ping polls network round-trip time between two nodes in seconds.
func Ping(c *cluster.Cluster, a, b string) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID(fmt.Sprintf("net.%s-%s.ping", a, b)),
		Fn: func() (float64, error) { return c.Network().Ping(a, b).Seconds(), nil },
	}
}

// TierRemaining polls the total remaining capacity of a tier (row 10); the
// single-hook form used when the insight is not assembled from per-device
// fact vertices.
func TierRemaining(c *cluster.Cluster, tier cluster.Tier) score.Hook {
	return score.HookFunc{
		ID: telemetry.MetricID("tier." + tier.String() + ".remaining"),
		Fn: func() (float64, error) { return float64(insights.TierRemainingCapacity(c, tier)), nil },
	}
}

// WithCost wraps a hook with a simulated polling cost: reading low-level
// hardware counters is far more expensive than queue operations (Fig. 4),
// and the adaptive-interval evaluation counts hook calls precisely because
// each call has a roughly constant cost (§4.3.2). The cost is busy-waited so
// it shows up in the vertex's hook-time accounting.
func WithCost(h score.Hook, cost time.Duration) score.Hook {
	return score.HookFunc{
		ID: h.Metric(),
		Fn: func() (float64, error) {
			deadline := time.Now().Add(cost)
			for time.Now().Before(deadline) {
			}
			return h.Poll()
		},
	}
}
