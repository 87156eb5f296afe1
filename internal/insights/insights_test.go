package insights

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
)

func ares(t *testing.T) *cluster.Cluster {
	t.Helper()
	return cluster.BuildAres(time.Unix(1000, 0), 2, 2)
}

func TestMSCA(t *testing.T) {
	tel := cluster.Telemetry{NumReqs: 4, Concurrency: 8, MaxBW: 100, RealBW: 50}
	// 4/8 * (100-50)/100 = 0.25
	if got := MSCA(tel); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MSCA=%f", got)
	}
	// Saturated device: spare clamps at 0.
	tel.RealBW = 150
	if got := MSCA(tel); got != 0 {
		t.Fatalf("saturated MSCA=%f", got)
	}
	if MSCA(cluster.Telemetry{}) != 0 {
		t.Fatal("zero telemetry MSCA")
	}
}

func TestInterferenceFactor(t *testing.T) {
	if got := InterferenceFactor(cluster.Telemetry{MaxBW: 200, RealBW: 50}); got != 0.25 {
		t.Fatalf("IF=%f", got)
	}
	if got := InterferenceFactor(cluster.Telemetry{MaxBW: 100, RealBW: 300}); got != 1 {
		t.Fatalf("IF clamp=%f", got)
	}
	if InterferenceFactor(cluster.Telemetry{}) != 0 {
		t.Fatal("zero MaxBW")
	}
}

func TestFSPerformance(t *testing.T) {
	c := ares(t)
	fs := FSPerformance(c.Node("stor00"))
	if fs.RAIDLevel != 5 || fs.NumDevices != 2 {
		t.Fatalf("fs=%+v", fs)
	}
}

func TestBlockHotness(t *testing.T) {
	c := ares(t)
	d := c.Node("comp00").Device("nvme0")
	for i := 0; i < 3; i++ {
		d.Read(11, 4096)
	}
	hot := BlockHotness(d, 5)
	if len(hot) != 1 || hot[0].Block != 11 || hot[0].Accesses != 3 {
		t.Fatalf("hot=%v", hot)
	}
}

func TestDeviceHealthAndFaultTolerance(t *testing.T) {
	tel := cluster.Telemetry{TotalBlocks: 100, BadBlocks: 10, ReplicationLevel: 3}
	if got := DeviceHealth(tel); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("health=%f", got)
	}
	if got := DeviceFaultTolerance(tel); math.Abs(got-3/0.9) > 1e-12 {
		t.Fatalf("ft=%f", got)
	}
	dead := cluster.Telemetry{TotalBlocks: 10, BadBlocks: 10, ReplicationLevel: 2}
	if DeviceFaultTolerance(dead) != 0 {
		t.Fatal("dead device ft nonzero")
	}
	if DeviceHealth(cluster.Telemetry{}) != 0 {
		t.Fatal("no blocks health")
	}
}

func TestDeviceDegradationRate(t *testing.T) {
	tel := cluster.Telemetry{TotalBlocks: 1000, BadBlocks: 100, BlocksRead: 400, BlocksWritten: 600}
	// (1-0.9)/1000 = 0.0001
	if got := DeviceDegradationRate(tel); math.Abs(got-0.0001) > 1e-15 {
		t.Fatalf("degradation=%g", got)
	}
	if DeviceDegradationRate(cluster.Telemetry{TotalBlocks: 10}) != 0 {
		t.Fatal("no-traffic degradation nonzero")
	}
}

func TestNetworkHealth(t *testing.T) {
	c := ares(t)
	nh := MeasureNetworkHealth(c, "comp00", "stor00")
	if nh.Ping <= 0 || nh.NodeA != "comp00" || nh.NodeB != "stor00" {
		t.Fatalf("nh=%+v", nh)
	}
	if !nh.Timestamp.Equal(c.Now()) {
		t.Fatal("timestamp mismatch")
	}
}

func TestAvailableNodes(t *testing.T) {
	c := ares(t)
	c.Node("comp01").SetOnline(false)
	av := AvailableNodes(c)
	if len(av.Nodes) != 3 {
		t.Fatalf("nodes=%v", av.Nodes)
	}
	for i := 1; i < len(av.Nodes); i++ {
		if av.Nodes[i-1] >= av.Nodes[i] {
			t.Fatalf("not ordered: %v", av.Nodes)
		}
	}
}

func TestTierRemainingCapacity(t *testing.T) {
	c := ares(t)
	want := 2 * 250 * cluster.GB
	if got := TierRemainingCapacity(c, cluster.TierNVMe); got != want {
		t.Fatalf("nvme remaining=%d want %d", got, want)
	}
	c.Node("comp00").Device("nvme0").Write(0, 50*cluster.GB)
	if got := TierRemainingCapacity(c, cluster.TierNVMe); got != want-50*cluster.GB {
		t.Fatalf("after write=%d", got)
	}
}

func TestEnergyPerTransfer(t *testing.T) {
	c := ares(t)
	n := c.Node("comp00")
	idle := EnergyPerTransfer(n) // no transfers: full power over 1
	if idle != 90 {
		t.Fatalf("idle ept=%f", idle)
	}
	n.Device("nvme0").Write(0, cluster.GB)
	n.Device("nvme0").Write(0, cluster.GB)
	c.Step(time.Second)
	busy := EnergyPerTransfer(n)
	if busy >= idle {
		t.Fatalf("busy ept=%f should be below idle %f", busy, idle)
	}
}

func TestSystemTime(t *testing.T) {
	c := ares(t)
	st := ReadSystemTime(c, "comp00")
	if st.NodeID != "comp00" || !st.Time.Equal(c.Now()) {
		t.Fatalf("st=%+v", st)
	}
}

func TestDeviceLoad(t *testing.T) {
	tel := cluster.Telemetry{
		BlocksRead: 500, BlocksWritten: 500,
		ReadBlocksPerSec: 10, WritBlocksPerSec: 10,
	}
	if got := DeviceLoad(tel); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("load=%f", got)
	}
	if DeviceLoad(cluster.Telemetry{}) != 0 {
		t.Fatal("fresh device load nonzero")
	}
}

func TestJobAllocations(t *testing.T) {
	c := ares(t)
	id := c.Jobs().Submit("vpic", []string{"comp00", "comp01"}, 40, c.Now())
	c.Jobs().AccountIO(id, 10, 20)
	allocs := JobAllocations(c)
	if len(allocs) != 1 {
		t.Fatalf("allocs=%v", allocs)
	}
	a := allocs[0]
	if a.JobID != id || a.NumNodes != 2 || a.ProcsPerNode != 40 || a.BytesRead != 10 || a.BytesWritten != 20 {
		t.Fatalf("alloc=%+v", a)
	}
}

func TestRankByInterference(t *testing.T) {
	c := ares(t)
	busy := c.Node("comp00").Device("nvme0")
	busy.Write(0, 2*cluster.GB) // 2 GB/s device: saturated for 1s window
	c.Step(time.Second)
	devs := c.DevicesByTier(cluster.TierNVMe)
	ranked := RankByInterference(devs)
	if ranked[0].Device.ID() != "comp01.nvme0" {
		t.Fatalf("least interfered = %s", ranked[0].Device.ID())
	}
	if ranked[1].Score <= ranked[0].Score {
		t.Fatalf("scores not ascending: %v", ranked)
	}
}

func TestRankByHealth(t *testing.T) {
	c := ares(t)
	bad := c.Node("comp00").Device("nvme0")
	bad.InjectBadBlocks(bad.Snapshot().TotalBlocks / 2)
	ranked := RankByHealth(c.DevicesByTier(cluster.TierNVMe))
	if ranked[0].Device.ID() != "comp01.nvme0" {
		t.Fatalf("healthiest = %s", ranked[0].Device.ID())
	}
}
