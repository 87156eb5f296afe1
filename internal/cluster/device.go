// Package cluster simulates the hardware testbed of the paper (the Ares
// cluster: compute nodes with RAM+NVMe, storage nodes with SSD+HDD, a burst
// buffer and a PFS) so every experiment can run on a laptop. Devices model
// capacity, bandwidth, queueing, block wear, and energy; nodes aggregate
// devices and expose CPU/memory load; the network models per-pair ping
// latency; a Slurm-like job registry records allocations.
//
// The simulation is step-driven: workload drivers issue Read/Write calls
// between Cluster.Step(dt) calls; Step closes the accounting window so that
// per-second rates (bandwidth, transfers/s, blocks/s, power) become
// observable to monitor hooks, exactly the quantities Table 1's I/O Insights
// consume.
package cluster

import (
	"fmt"
	"sync"
	"time"
)

// Tier identifies a storage tier, fastest first. The ordering matches the
// hierarchy used by the middleware experiments (§4.4): RAM, NVMe, burst
// buffer SSD, PFS HDD.
type Tier int

// Storage tiers.
const (
	TierRAM Tier = iota
	TierNVMe
	TierSSD
	TierHDD
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierRAM:
		return "ram"
	case TierNVMe:
		return "nvme"
	case TierSSD:
		return "ssd"
	case TierHDD:
		return "hdd"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// BlockSize is the simulated device block size in bytes.
const BlockSize = 4096

// DeviceSpec describes the static properties of a device.
type DeviceSpec struct {
	// Name is unique within a node, e.g. "nvme0".
	Name string
	// Tier the device belongs to.
	Tier Tier
	// Capacity in bytes.
	Capacity int64
	// MaxBandwidth in bytes/second (per direction, shared).
	MaxBandwidth float64
	// Latency is the fixed per-request setup cost.
	Latency time.Duration
	// Concurrency (DevC in Table 1) is how many requests the device can
	// service concurrently before queueing.
	Concurrency int
	// ReplicationLevel of data placed on the device (Table 1 row 7).
	ReplicationLevel int
	// JoulesPerByte is the marginal energy of moving one byte.
	JoulesPerByte float64
}

// FSInfo captures filesystem performance characteristics (Table 1 row 3).
type FSInfo struct {
	Compression string
	BlockSize   int
	RAIDLevel   int
	NumDevices  int
	MaxBW       float64
}

// Device is one simulated storage device.
type Device struct {
	spec DeviceSpec
	node string

	mu   sync.Mutex
	used int64

	totalBlocks int64
	badBlocks   int64

	// Lifetime counters.
	blocksRead    int64
	blocksWritten int64
	transfers     int64
	joules        float64

	// Current-window accumulators, closed by step().
	winBytes     int64
	winReadBlks  int64
	winWriteBlks int64
	winTransfers int64
	winJoules    float64
	winQueueSum  float64 // integral of queue length over ops
	winOps       int64

	// Last closed window rates.
	rateBW        float64 // bytes/s
	rateReadBlks  float64 // blocks/s
	rateWriteBlks float64
	rateTransfers float64
	ratePower     float64 // watts attributable to this device

	// Outstanding requests right now (NumReqs in Table 1).
	outstanding int

	// Block heat: access counts per block id, bounded.
	heat map[int64]uint64
}

func newDevice(node string, spec DeviceSpec) *Device {
	if spec.Concurrency < 1 {
		spec.Concurrency = 1
	}
	if spec.ReplicationLevel < 1 {
		spec.ReplicationLevel = 1
	}
	return &Device{
		spec:        spec,
		node:        node,
		totalBlocks: spec.Capacity / BlockSize,
		heat:        make(map[int64]uint64),
	}
}

// Spec returns the device's static description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// ID returns "node.name".
func (d *Device) ID() string { return d.node + "." + d.spec.Name }

// Used returns the bytes currently stored.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Remaining returns the free capacity in bytes.
func (d *Device) Remaining() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spec.Capacity - d.used
}

// ErrDeviceFull is returned when a write exceeds remaining capacity.
var ErrDeviceFull = fmt.Errorf("cluster: device full")

// Write stores n bytes starting at block offsetBlk, returning the simulated
// service time. It fails with ErrDeviceFull when capacity would be exceeded.
func (d *Device) Write(offsetBlk int64, n int64) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+n > d.spec.Capacity {
		return 0, fmt.Errorf("%w: %s (%d used of %d, writing %d)", ErrDeviceFull, d.ID(), d.used, d.spec.Capacity, n)
	}
	d.used += n
	blocks := (n + BlockSize - 1) / BlockSize
	d.blocksWritten += blocks
	d.winWriteBlks += blocks
	return d.transferLocked(offsetBlk, blocks, n), nil
}

// Read fetches n bytes starting at block offsetBlk, returning the simulated
// service time.
func (d *Device) Read(offsetBlk int64, n int64) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	blocks := (n + BlockSize - 1) / BlockSize
	d.blocksRead += blocks
	d.winReadBlks += blocks
	return d.transferLocked(offsetBlk, blocks, n), nil
}

// Free releases n bytes (flush/evict/delete).
func (d *Device) Free(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used -= n
	if d.used < 0 {
		d.used = 0
	}
}

// transferLocked does shared accounting. Caller holds d.mu.
func (d *Device) transferLocked(offsetBlk, blocks, n int64) time.Duration {
	d.transfers++
	d.winTransfers++
	d.winBytes += n
	j := float64(n) * d.spec.JoulesPerByte
	d.joules += j
	d.winJoules += j
	d.outstanding++
	d.winQueueSum += float64(d.outstanding)
	d.winOps++
	// Heat: count the touched blocks coarsely (first block of request).
	d.heat[offsetBlk]++
	// Service time: setup latency + transfer at max bandwidth, degraded by
	// queueing beyond the device's concurrency.
	svc := d.spec.Latency + time.Duration(float64(n)/d.spec.MaxBandwidth*float64(time.Second))
	if over := d.outstanding - d.spec.Concurrency; over > 0 {
		svc += time.Duration(over) * d.spec.Latency
	}
	d.outstanding--
	return svc
}

// step closes the accounting window of length dt.
func (d *Device) step(dt time.Duration) {
	sec := dt.Seconds()
	if sec <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rateBW = float64(d.winBytes) / sec
	d.rateReadBlks = float64(d.winReadBlks) / sec
	d.rateWriteBlks = float64(d.winWriteBlks) / sec
	d.rateTransfers = float64(d.winTransfers) / sec
	d.ratePower = d.winJoules / sec
	d.winBytes, d.winReadBlks, d.winWriteBlks, d.winTransfers = 0, 0, 0, 0
	d.winJoules = 0
	d.winQueueSum, d.winOps = 0, 0
}

// Telemetry is a point-in-time snapshot of everything the monitor hooks and
// Table 1 insights read from a device.
type Telemetry struct {
	DeviceID         string
	Node             string
	Tier             Tier
	Capacity         int64
	Used             int64
	Remaining        int64
	MaxBW            float64
	RealBW           float64 // observed bytes/s in the last window
	ReadBlocksPerSec float64
	WritBlocksPerSec float64
	TransfersPerSec  float64
	PowerWatts       float64
	NumReqs          int
	Concurrency      int
	TotalBlocks      int64
	BadBlocks        int64
	BlocksRead       int64
	BlocksWritten    int64
	ReplicationLevel int
}

// Snapshot returns current telemetry.
func (d *Device) Snapshot() Telemetry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Telemetry{
		DeviceID:         d.node + "." + d.spec.Name,
		Node:             d.node,
		Tier:             d.spec.Tier,
		Capacity:         d.spec.Capacity,
		Used:             d.used,
		Remaining:        d.spec.Capacity - d.used,
		MaxBW:            d.spec.MaxBandwidth,
		RealBW:           d.rateBW,
		ReadBlocksPerSec: d.rateReadBlks,
		WritBlocksPerSec: d.rateWriteBlks,
		TransfersPerSec:  d.rateTransfers,
		PowerWatts:       d.ratePower,
		NumReqs:          d.outstanding,
		Concurrency:      d.spec.Concurrency,
		TotalBlocks:      d.totalBlocks,
		BadBlocks:        d.badBlocks,
		BlocksRead:       d.blocksRead,
		BlocksWritten:    d.blocksWritten,
		ReplicationLevel: d.spec.ReplicationLevel,
	}
}

// InjectBadBlocks marks n more blocks bad (fault injection for the Device
// Health and Degradation insights).
func (d *Device) InjectBadBlocks(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.badBlocks += n
	if d.badBlocks > d.totalBlocks {
		d.badBlocks = d.totalBlocks
	}
}

// HotBlocks returns up to max (block, accesses) pairs sorted hottest-first.
func (d *Device) HotBlocks(max int) []BlockHeat {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]BlockHeat, 0, len(d.heat))
	for blk, n := range d.heat {
		out = append(out, BlockHeat{Block: blk, Accesses: n})
	}
	sortBlockHeat(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// BlockHeat is one (block, access count) pair.
type BlockHeat struct {
	Block    int64
	Accesses uint64
}

func sortBlockHeat(s []BlockHeat) {
	// Insertion sort: heat maps are small and this avoids pulling sort
	// closures into the hot path.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Accesses > s[j-1].Accesses ||
			(s[j].Accesses == s[j-1].Accesses && s[j].Block < s[j-1].Block)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
