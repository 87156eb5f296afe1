package figures

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/hooks"
	"repro/internal/insights"
	"repro/internal/score"
)

// table1Cluster builds the fixture Table 1 is computed over: a busy nvme at
// ~95% bandwidth, an hdd with 5% bad blocks, stor01 offline and one
// 2x40-process job.
func table1Cluster() (*cluster.Cluster, error) {
	c := cluster.BuildAres(time.Unix(1000, 0), 2, 2)
	busy := c.Node("comp00").Device("nvme0")
	if _, err := busy.Write(0, 1900*cluster.MB); err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		if _, err := busy.Read(7, 4096); err != nil {
			return nil, err
		}
	}
	worn := c.Node("stor00").Device("hdd0")
	worn.InjectBadBlocks(worn.Snapshot().TotalBlocks / 20)
	if _, err := worn.Write(0, 10*cluster.GB); err != nil {
		return nil, err
	}
	c.Node("comp00").SetCPULoad(0.8)
	c.Node("stor01").SetOnline(false)
	jobID := c.Jobs().Submit("vpic", []string{"comp00", "comp01"}, 40, c.Now())
	c.Jobs().AccountIO(jobID, 0, 101*cluster.GB)
	c.Step(time.Second)
	return c, nil
}

// Table1 regenerates the paper's Table 1: every I/O Insight curation
// computed live over a loaded fixture cluster, with the formalization each
// row uses. (Rows 11 and 14 are the same curation in the paper; both map to
// EnergyPerTransfer here.) The rows a Fact vertex can carry — 1, 2, 6, 10,
// 11/14 and 13 — are read through their monitor hooks, the way a vertex polls them,
// and rows 5, 7 and 8 rate the device RankByHealth ranks last.
func Table1(opts Options) (*Table, error) {
	c, err := table1Cluster()
	if err != nil {
		return nil, err
	}
	comp00 := c.Node("comp00")
	busy := comp00.Device("nvme0")
	ranked := insights.RankByHealth(c.Devices())
	worn := ranked[len(ranked)-1].Device
	wt := worn.Snapshot()
	var pollErr error
	poll := func(h score.Hook) float64 {
		v, err := h.Poll()
		if err != nil && pollErr == nil {
			pollErr = fmt.Errorf("figures: polling %s: %w", h.Metric(), err)
		}
		return v
	}

	t := &Table{
		ID:      "t1",
		Title:   "I/O Insight curations computed over the fixture cluster (paper Table 1)",
		Columns: []string{"row", "curation", "value"},
	}
	t.AddRow("1", "MSCA (busy nvme)", f(poll(hooks.DeviceMSCA(busy))))
	t.AddRow("2", "Interference Factor (busy nvme)", f(poll(hooks.DeviceInterference(busy))))
	fs := insights.FSPerformance(c.Node("stor00"))
	t.AddRow("3", "FS Performance (stor00)",
		fmt.Sprintf("raid=%d devices=%d bw=%.0fMB/s", fs.RAIDLevel, fs.NumDevices, fs.MaxBW/1e6))
	hot := insights.BlockHotness(busy, 1)
	t.AddRow("4", "Block Hotness (hottest)", fmt.Sprintf("block=%d accesses=%d", hot[0].Block, hot[0].Accesses))
	t.AddRow("5", "Device Health (least healthy: "+worn.ID()+")", f(insights.DeviceHealth(wt)))
	ping := time.Duration(poll(hooks.Ping(c, "comp00", "stor00")) * float64(time.Second))
	t.AddRow("6", "Network Health (comp00-stor00)", ping.Round(time.Microsecond).String())
	t.AddRow("7", "Device Fault Tolerance ("+worn.ID()+")", f(insights.DeviceFaultTolerance(wt)))
	t.AddRow("8", "Device Degradation Rate ("+worn.ID()+")", f(insights.DeviceDegradationRate(wt)))
	av := insights.AvailableNodes(c)
	t.AddRow("9", "Node Availability List", fmt.Sprintf("%v", av.Nodes))
	t.AddRow("10", "Tier Remaining Capacity (nvme)",
		f(poll(hooks.TierRemaining(c, cluster.TierNVMe))/float64(cluster.GB))+" GB")
	t.AddRow("11/14", "Energy per Transfer (comp00)", f(poll(hooks.NodeEnergyPerTransfer(comp00)))+" J")
	st := insights.ReadSystemTime(c, "comp00")
	t.AddRow("12", "System Time (comp00)", st.Time.UTC().Format(time.RFC3339))
	t.AddRow("13", "Device Load (busy nvme)", f(poll(hooks.DeviceLoad(busy))))
	allocs := insights.JobAllocations(c)
	t.AddRow("15", "Allocation Characteristics",
		fmt.Sprintf("job=%d nodes=%d procs=%d written=%dGB",
			allocs[0].JobID, allocs[0].NumNodes, allocs[0].ProcsPerNode, allocs[0].BytesWritten/cluster.GB))
	if pollErr != nil {
		return nil, pollErr
	}
	t.Notes = append(t.Notes,
		"fixture: busy nvme at ~95% bandwidth, hdd with 5% bad blocks, stor01 offline, one 2x40-proc job",
		"rows 1, 2, 10, 11/14 and 13 are polled through their monitor hooks")
	return t, nil
}
