package cluster

import (
	"errors"
	"testing"
	"time"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return BuildAres(time.Unix(1000, 0), 2, 2)
}

func TestBuildAresShape(t *testing.T) {
	c := testCluster(t)
	if len(c.Nodes()) != 4 {
		t.Fatalf("nodes=%d", len(c.Nodes()))
	}
	comp := c.Node("comp00")
	if comp == nil {
		t.Fatal("comp00 missing")
	}
	if comp.Device("nvme0") == nil || comp.Device("ram") == nil {
		t.Fatal("compute devices missing")
	}
	stor := c.Node("stor01")
	if stor.Device("ssd0") == nil || stor.Device("hdd0") == nil {
		t.Fatal("storage devices missing")
	}
	if got := len(c.DevicesByTier(TierNVMe)); got != 2 {
		t.Fatalf("nvme devices=%d", got)
	}
	if got := len(c.Devices()); got != 8 {
		t.Fatalf("devices=%d", got)
	}
}

func TestDuplicateNode(t *testing.T) {
	c := New(time.Unix(0, 0))
	if _, err := c.AddNode(ComputeNodeSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(ComputeNodeSpec("a")); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestDeviceWriteReadCapacity(t *testing.T) {
	c := testCluster(t)
	d := c.Node("comp00").Device("nvme0")
	if d.Remaining() != 250*GB {
		t.Fatalf("remaining=%d", d.Remaining())
	}
	svc, err := d.Write(0, 1*GB)
	if err != nil {
		t.Fatal(err)
	}
	if svc <= 0 {
		t.Fatal("zero service time")
	}
	if d.Used() != 1*GB {
		t.Fatalf("used=%d", d.Used())
	}
	if _, err := d.Write(0, 300*GB); !errors.Is(err, ErrDeviceFull) {
		t.Fatalf("overfill err=%v", err)
	}
	if _, err := d.Read(0, 512*MB); err != nil {
		t.Fatal(err)
	}
	d.Free(1 * GB)
	if d.Used() != 0 {
		t.Fatalf("after free used=%d", d.Used())
	}
	d.Free(5 * GB) // over-free clamps at zero
	if d.Used() != 0 {
		t.Fatal("over-free went negative")
	}
}

func TestDeviceZeroSizedOps(t *testing.T) {
	d := newDevice("n", ComputeNodeSpec("n").Devices[1])
	if svc, err := d.Write(0, 0); err != nil || svc != 0 {
		t.Fatalf("zero write svc=%v err=%v", svc, err)
	}
	if svc, err := d.Read(0, -5); err != nil || svc != 0 {
		t.Fatalf("neg read svc=%v err=%v", svc, err)
	}
}

func TestServiceTimeScalesWithSize(t *testing.T) {
	c := testCluster(t)
	d := c.Node("stor00").Device("hdd0")
	small, _ := d.Write(0, 1*MB)
	big, _ := d.Write(0, 100*MB)
	if big <= small {
		t.Fatalf("big=%v small=%v", big, small)
	}
}

func TestWindowRates(t *testing.T) {
	c := testCluster(t)
	d := c.Node("comp00").Device("nvme0")
	d.Write(0, 10*MB)
	d.Read(0, 10*MB)
	// Rates are zero before the window closes.
	if got := d.Snapshot().RealBW; got != 0 {
		t.Fatalf("pre-step RealBW=%f", got)
	}
	c.Step(2 * time.Second)
	snap := d.Snapshot()
	if snap.RealBW != float64(20*MB)/2 {
		t.Fatalf("RealBW=%f", snap.RealBW)
	}
	if snap.TransfersPerSec != 1 {
		t.Fatalf("TransfersPerSec=%f", snap.TransfersPerSec)
	}
	if snap.ReadBlocksPerSec <= 0 || snap.WritBlocksPerSec <= 0 {
		t.Fatalf("block rates %f/%f", snap.ReadBlocksPerSec, snap.WritBlocksPerSec)
	}
	// Next window with no traffic: rates drop to zero.
	c.Step(time.Second)
	if d.Snapshot().RealBW != 0 {
		t.Fatal("stale rates after idle window")
	}
}

func TestStepAdvancesClock(t *testing.T) {
	c := testCluster(t)
	t0 := c.Now()
	c.Step(5 * time.Second)
	if c.Now().Sub(t0) != 5*time.Second {
		t.Fatalf("now=%v", c.Now())
	}
}

func TestBadBlocksClamp(t *testing.T) {
	c := testCluster(t)
	d := c.Node("comp00").Device("nvme0")
	total := d.Snapshot().TotalBlocks
	d.InjectBadBlocks(10)
	if d.Snapshot().BadBlocks != 10 {
		t.Fatalf("bad=%d", d.Snapshot().BadBlocks)
	}
	d.InjectBadBlocks(total * 2)
	if d.Snapshot().BadBlocks != total {
		t.Fatalf("bad=%d not clamped to %d", d.Snapshot().BadBlocks, total)
	}
}

func TestHotBlocks(t *testing.T) {
	c := testCluster(t)
	d := c.Node("comp00").Device("nvme0")
	for i := 0; i < 5; i++ {
		d.Read(7, 4096)
	}
	d.Read(3, 4096)
	hot := d.HotBlocks(10)
	if len(hot) != 2 || hot[0].Block != 7 || hot[0].Accesses != 5 {
		t.Fatalf("hot=%v", hot)
	}
	if got := d.HotBlocks(1); len(got) != 1 {
		t.Fatalf("capped hot=%v", got)
	}
}

func TestNodeLoadAndMem(t *testing.T) {
	c := testCluster(t)
	n := c.Node("comp00")
	n.SetCPULoad(1.5)
	if n.CPULoad() != 1 {
		t.Fatalf("load=%f not clamped", n.CPULoad())
	}
	n.SetCPULoad(-2)
	if n.CPULoad() != 0 {
		t.Fatal("negative load not clamped")
	}
	if used, total := n.Mem(); used != 0 || total != 96*GB {
		t.Fatalf("mem=%d/%d", used, total)
	}
}

func TestPowerModel(t *testing.T) {
	c := testCluster(t)
	n := c.Node("comp00")
	idle := n.PowerWatts()
	if idle != 90 {
		t.Fatalf("idle power=%f", idle)
	}
	n.SetCPULoad(0.5)
	if got := n.PowerWatts(); got != 90+85 {
		t.Fatalf("half-load power=%f", got)
	}
	// Device transfers add power after a window closes.
	n.Device("nvme0").Write(0, 1*GB)
	c.Step(time.Second)
	if got := n.PowerWatts(); got <= 175 {
		t.Fatalf("power with IO=%f", got)
	}
	if n.TransfersPerSec() != 1 {
		t.Fatalf("transfers/s=%f", n.TransfersPerSec())
	}
}

func TestOnlineNodes(t *testing.T) {
	c := testCluster(t)
	if got := c.OnlineNodes(); len(got) != 4 {
		t.Fatalf("online=%v", got)
	}
	c.Node("stor00").SetOnline(false)
	got := c.OnlineNodes()
	if len(got) != 3 {
		t.Fatalf("online=%v", got)
	}
	for _, id := range got {
		if id == "stor00" {
			t.Fatal("offline node listed")
		}
	}
}

func TestNetworkPing(t *testing.T) {
	c := testCluster(t)
	net := c.Network()
	p := net.Ping("comp00", "stor00")
	if p < 150*time.Microsecond || p > 250*time.Microsecond {
		t.Fatalf("ping=%v", p)
	}
	net.SetDefaultLatency(time.Millisecond)
	p1 := net.Ping("a", "b")
	p2 := net.Ping("b", "a")
	if p1 < 800*time.Microsecond || p2 < 800*time.Microsecond {
		t.Fatalf("pings %v %v", p1, p2)
	}
	// Self ping is tiny.
	if net.Ping("a", "a") > 50*time.Microsecond {
		t.Fatal("self ping too slow")
	}
}

func TestJobRegistry(t *testing.T) {
	c := testCluster(t)
	jr := c.Jobs()
	id := jr.Submit("vpic", []string{"comp00", "comp01"}, 40, c.Now())
	if id != 1 {
		t.Fatalf("id=%d", id)
	}
	jr.AccountIO(id, 100, 200)
	jr.AccountIO(999, 1, 1) // unknown id ignored
	got := jr.List()
	if len(got) != 1 || got[0].BytesRead != 100 || got[0].BytesWritten != 200 || len(got[0].Nodes) != 2 {
		t.Fatalf("list=%+v", got)
	}
	// Mutating the returned copy must not affect the registry.
	got[0].Nodes[0] = "hacked"
	if jr.List()[0].Nodes[0] != "comp00" {
		t.Fatal("registry aliased job nodes")
	}
}

func TestTierString(t *testing.T) {
	names := map[Tier]string{TierRAM: "ram", TierNVMe: "nvme", TierSSD: "ssd", TierHDD: "hdd"}
	for tier, want := range names {
		if tier.String() != want {
			t.Fatalf("%d -> %q", tier, tier.String())
		}
	}
	if Tier(42).String() != "tier(42)" {
		t.Fatal("unknown tier name")
	}
}

func TestQueueingDegradesService(t *testing.T) {
	// A device with concurrency 1 must serve a burst slower per-request
	// than an idle device... outstanding is tracked within one call, so we
	// validate the NumReqs snapshot stays 0 when idle.
	c := testCluster(t)
	d := c.Node("stor00").Device("hdd0")
	if d.Snapshot().NumReqs != 0 {
		t.Fatal("idle device has outstanding requests")
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	c := BuildAres(time.Unix(0, 0), 1, 0)
	d := c.Node("comp00").Device("nvme0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Write(int64(i%1000), 4096)
		d.Free(4096)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	c := BuildAres(time.Unix(0, 0), 1, 0)
	d := c.Node("comp00").Device("nvme0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Snapshot()
	}
}
