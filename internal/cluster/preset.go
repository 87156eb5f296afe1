package cluster

import (
	"fmt"
	"time"
)

// Sizes in bytes.
const (
	MB = int64(1) << 20
	GB = int64(1) << 30
	TB = int64(1) << 40
)

// ComputeNodeSpec models an Ares compute node (§4.1.1): dual Xeon Silver
// 4114 (40 cores), 96 GB RAM, 250 GB local NVMe.
func ComputeNodeSpec(id string) NodeSpec {
	return NodeSpec{
		ID: id,
		Devices: []DeviceSpec{
			{
				Name: "ram", Tier: TierRAM, Capacity: 96 * GB,
				MaxBandwidth: 10e9, Latency: time.Microsecond,
				Concurrency: 40, JoulesPerByte: 1e-10,
			},
			{
				Name: "nvme0", Tier: TierNVMe, Capacity: 250 * GB,
				MaxBandwidth: 2e9, Latency: 20 * time.Microsecond,
				Concurrency: 16, JoulesPerByte: 5e-10,
			},
		},
		FS:          FSInfo{Compression: "none", BlockSize: BlockSize, RAIDLevel: 0, NumDevices: 1, MaxBW: 2e9},
		MemTotal:    96 * GB,
		PowerIdle:   90,
		PowerActive: 170,
	}
}

// StorageNodeSpec models an Ares storage node: dual Opteron 2384 (8 cores),
// 32 GB RAM, 150 GB SATA SSD, 1 TB HDD.
func StorageNodeSpec(id string) NodeSpec {
	return NodeSpec{
		ID: id,
		Devices: []DeviceSpec{
			{
				Name: "ssd0", Tier: TierSSD, Capacity: 150 * GB,
				MaxBandwidth: 500e6, Latency: 80 * time.Microsecond,
				Concurrency: 8, JoulesPerByte: 1e-9,
			},
			{
				Name: "hdd0", Tier: TierHDD, Capacity: 1 * TB,
				MaxBandwidth: 120e6, Latency: 4 * time.Millisecond,
				Concurrency: 2, JoulesPerByte: 3e-9,
			},
		},
		FS:          FSInfo{Compression: "none", BlockSize: BlockSize, RAIDLevel: 5, NumDevices: 2, MaxBW: 500e6},
		MemTotal:    32 * GB,
		PowerIdle:   70,
		PowerActive: 110,
	}
}

// BuildAres assembles a cluster shaped like the paper's testbed with the
// given node counts (the paper uses 32 + 32).
func BuildAres(start time.Time, computeNodes, storageNodes int) *Cluster {
	c := New(start)
	for i := 0; i < computeNodes; i++ {
		if _, err := c.AddNode(ComputeNodeSpec(fmt.Sprintf("comp%02d", i))); err != nil {
			panic(err) // ids are generated, duplicates are impossible
		}
	}
	for i := 0; i < storageNodes; i++ {
		if _, err := c.AddNode(StorageNodeSpec(fmt.Sprintf("stor%02d", i))); err != nil {
			panic(err)
		}
	}
	// 40 Gb/s Ethernet with RoCE: ~200us pings everywhere.
	c.Network().SetDefaultLatency(200 * time.Microsecond)
	return c
}
