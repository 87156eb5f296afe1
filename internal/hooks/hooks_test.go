package hooks

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func ares(t *testing.T) *cluster.Cluster {
	t.Helper()
	return cluster.BuildAres(time.Unix(1000, 0), 1, 1)
}

func poll(t *testing.T, h interface {
	Poll() (float64, error)
}) float64 {
	t.Helper()
	v, err := h.Poll()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDeviceHooks(t *testing.T) {
	c := ares(t)
	d := c.Node("comp00").Device("nvme0")
	d.Write(0, cluster.GB)
	c.Step(time.Second)

	if got := poll(t, DeviceRemaining(d)); got != float64(249*cluster.GB) {
		t.Fatalf("remaining=%f", got)
	}
	if got := poll(t, DeviceBandwidth(d)); got != float64(cluster.GB) {
		t.Fatalf("bw=%f", got)
	}
	iff := poll(t, DeviceInterference(d))
	if iff <= 0 || iff > 1 {
		t.Fatalf("interference=%f", iff)
	}
	if got := poll(t, DeviceHealth(d)); got != 1 {
		t.Fatalf("health=%f", got)
	}
	if got := poll(t, DeviceLoad(d)); got <= 0 {
		t.Fatalf("load=%f", got)
	}
	if got := poll(t, DeviceMSCA(d)); got != 0 { // no outstanding reqs
		t.Fatalf("msca=%f", got)
	}
	// Metric IDs are namespaced by device.
	if id := string(DeviceRemaining(d).Metric()); !strings.HasPrefix(id, "comp00.nvme0.") {
		t.Fatalf("id=%s", id)
	}
}

func TestNodeHooks(t *testing.T) {
	c := ares(t)
	n := c.Node("comp00")
	n.SetCPULoad(0.5)

	if got := poll(t, NodeCPU(n)); got != 0.5 {
		t.Fatalf("cpu=%f", got)
	}
	if got := poll(t, NodeMemUsed(n)); got != 0 {
		t.Fatalf("mem=%f", got)
	}
	if got := poll(t, NodePower(n)); got != 90+85 {
		t.Fatalf("power=%f", got)
	}
	if got := poll(t, NodeEnergyPerTransfer(n)); got <= 0 {
		t.Fatalf("ept=%f", got)
	}
	if got := poll(t, NodeOnline(n)); got != 1 {
		t.Fatalf("online=%f", got)
	}
	n.SetOnline(false)
	if got := poll(t, NodeOnline(n)); got != 0 {
		t.Fatalf("offline=%f", got)
	}
}

func TestPingHook(t *testing.T) {
	c := ares(t)
	h := Ping(c, "comp00", "stor00")
	v := poll(t, h)
	if v <= 0 || v > 0.01 {
		t.Fatalf("ping=%f s", v)
	}
	if string(h.Metric()) != "net.comp00-stor00.ping" {
		t.Fatalf("id=%s", h.Metric())
	}
}

func TestTierRemainingHook(t *testing.T) {
	c := ares(t)
	h := TierRemaining(c, cluster.TierNVMe)
	if got := poll(t, h); got != float64(250*cluster.GB) {
		t.Fatalf("tier remaining=%f", got)
	}
}

func TestWithCost(t *testing.T) {
	c := ares(t)
	base := DeviceRemaining(c.Node("comp00").Device("nvme0"))
	costly := WithCost(base, 2*time.Millisecond)
	t0 := time.Now()
	v := poll(t, costly)
	if elapsed := time.Since(t0); elapsed < 2*time.Millisecond {
		t.Fatalf("cost not applied: %v", elapsed)
	}
	if v != float64(250*cluster.GB) {
		t.Fatalf("value=%f", v)
	}
	if costly.Metric() != base.Metric() {
		t.Fatal("metric id changed by wrapper")
	}
}
