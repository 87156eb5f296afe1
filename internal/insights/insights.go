// Package insights implements the I/O Insight curations of Table 1 (§3.3):
// high-level, middleware-ready knowledge computed from the raw device and
// node telemetry of the simulated cluster. Each function mirrors one row of
// the table, using the table's formalization.
package insights

import (
	"sort"
	"time"

	"repro/internal/cluster"
)

// MSCA (row 1) — Medium Sensitivity to Concurrent Access — indicates the
// amount of concurrent I/O a device can handle:
//
//	NumReqs/DevC * (MaxBW-RealBW)/MaxBW
//
// Lower values mean the device is well-suited for more concurrent I/O.
func MSCA(t cluster.Telemetry) float64 {
	if t.Concurrency == 0 || t.MaxBW == 0 {
		return 0
	}
	spare := (t.MaxBW - t.RealBW) / t.MaxBW
	if spare < 0 {
		spare = 0
	}
	return float64(t.NumReqs) / float64(t.Concurrency) * spare
}

// InterferenceFactor (row 2) indicates the degree to which I/O is being
// interfered with: RealBW/MaxBW. Near 0 means idle, near 1 saturated.
func InterferenceFactor(t cluster.Telemetry) float64 {
	if t.MaxBW == 0 {
		return 0
	}
	f := t.RealBW / t.MaxBW
	if f > 1 {
		f = 1
	}
	return f
}

// FSPerformance (row 3) reports a node's filesystem performance
// characteristics verbatim.
func FSPerformance(n *cluster.Node) cluster.FSInfo { return n.FS() }

// BlockHotness (row 4) returns the hottest blocks of a device as
// (BlockID, access frequency) pairs.
func BlockHotness(d *cluster.Device, max int) []cluster.BlockHeat { return d.HotBlocks(max) }

// DeviceHealth (row 5): 1 - NumBadBlocks/TotalNumBlocks.
func DeviceHealth(t cluster.Telemetry) float64 {
	if t.TotalBlocks == 0 {
		return 0
	}
	return 1 - float64(t.BadBlocks)/float64(t.TotalBlocks)
}

// NetworkHealth (row 6) is one ping sample between two nodes.
type NetworkHealth struct {
	Timestamp time.Time
	NodeA     string
	NodeB     string
	Ping      time.Duration
}

// MeasureNetworkHealth samples the ping between two nodes.
func MeasureNetworkHealth(c *cluster.Cluster, a, b string) NetworkHealth {
	return NetworkHealth{
		Timestamp: c.Now(),
		NodeA:     a,
		NodeB:     b,
		Ping:      c.Network().Ping(a, b),
	}
}

// DeviceFaultTolerance (row 7): ReplicationLevel / DeviceHealth. Higher
// means data on the device survives more failures.
func DeviceFaultTolerance(t cluster.Telemetry) float64 {
	h := DeviceHealth(t)
	if h == 0 {
		return 0
	}
	return float64(t.ReplicationLevel) / h
}

// DeviceDegradationRate (row 8): lost health per block of lifetime traffic,
// i.e. (1 - health) / (blocks read + blocks written). Zero traffic gives 0.
func DeviceDegradationRate(t cluster.Telemetry) float64 {
	traffic := t.BlocksRead + t.BlocksWritten
	if traffic == 0 {
		return 0
	}
	return (1 - DeviceHealth(t)) / float64(traffic)
}

// NodeAvailability (row 9) is the ordered list of online nodes.
type NodeAvailability struct {
	Timestamp time.Time
	Nodes     []string
}

// AvailableNodes lists online nodes, sorted, with a timestamp.
func AvailableNodes(c *cluster.Cluster) NodeAvailability {
	return NodeAvailability{Timestamp: c.Now(), Nodes: c.OnlineNodes()}
}

// TierRemainingCapacity (row 10): sum over the tier's devices of
// DeviceCapacity_i - CapacityUsed_i.
func TierRemainingCapacity(c *cluster.Cluster, tier cluster.Tier) int64 {
	var sum int64
	for _, d := range c.DevicesByTier(tier) {
		sum += d.Remaining()
	}
	return sum
}

// EnergyPerTransfer (rows 11/14): PowerPerSec / TransfersPerSec for a node.
// Nodes doing no transfers report +Inf-avoiding 0-transfer semantics: the
// caller-visible value is the full power draw against one transfer, which
// ranks idle-but-powered nodes as expensive — the decommissioning signal the
// table describes.
func EnergyPerTransfer(n *cluster.Node) float64 {
	tps := n.TransfersPerSec()
	if tps <= 0 {
		tps = 1
	}
	return n.PowerWatts() / tps
}

// SystemTime (row 12) is a node's reported clock.
type SystemTime struct {
	NodeID string
	Time   time.Time
}

// ReadSystemTime samples a node's clock (all simulated nodes share the
// cluster clock; drift can be modeled by the caller).
func ReadSystemTime(c *cluster.Cluster, nodeID string) SystemTime {
	return SystemTime{NodeID: nodeID, Time: c.Now()}
}

// DeviceLoad (row 13): (Blk_read/s + Blk_written/s) / (Blk_read + Blk_written)
// — the fraction of the device's lifetime traffic happening right now.
func DeviceLoad(t cluster.Telemetry) float64 {
	lifetime := float64(t.BlocksRead + t.BlocksWritten)
	if lifetime == 0 {
		return 0
	}
	return (t.ReadBlocksPerSec + t.WritBlocksPerSec) / lifetime
}

// AllocationCharacteristics (row 15) describes one job's resources.
type AllocationCharacteristics struct {
	Timestamp    time.Time
	JobID        int
	NumNodes     int
	ProcsPerNode int
	BytesRead    int64
	BytesWritten int64
}

// JobAllocations reports allocation characteristics for every running job.
func JobAllocations(c *cluster.Cluster) []AllocationCharacteristics {
	jobs := c.Jobs().List()
	out := make([]AllocationCharacteristics, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, AllocationCharacteristics{
			Timestamp:    c.Now(),
			JobID:        j.ID,
			NumNodes:     len(j.Nodes),
			ProcsPerNode: j.ProcsPerNode,
			BytesRead:    j.BytesRead,
			BytesWritten: j.BytesWritten,
		})
	}
	return out
}

// Ranking helpers used by the middleware engines --------------------------

// DeviceScore pairs a device with a score for sorting.
type DeviceScore struct {
	Device *cluster.Device
	Score  float64
}

// RankByInterference orders devices least-interfered first — the I/O
// scheduler use case of rows 1-2.
func RankByInterference(devs []*cluster.Device) []DeviceScore {
	out := make([]DeviceScore, 0, len(devs))
	for _, d := range devs {
		out = append(out, DeviceScore{Device: d, Score: InterferenceFactor(d.Snapshot())})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}

// RankByHealth orders devices healthiest first — rows 5/7/8.
func RankByHealth(devs []*cluster.Device) []DeviceScore {
	out := make([]DeviceScore, 0, len(devs))
	for _, d := range devs {
		out = append(out, DeviceScore{Device: d, Score: DeviceHealth(d.Snapshot())})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
