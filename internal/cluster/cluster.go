package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Node is one simulated machine.
type Node struct {
	ID string

	mu      sync.Mutex
	online  bool
	devices map[string]*Device
	fs      FSInfo

	// Synthetic host load in [0,1], settable by workload drivers, and memory
	// stats; monitor hooks read them. No workload driver models memory use,
	// so memUsed stays 0.
	cpuLoad  float64
	memTotal int64
	memUsed  int64

	// Energy model.
	powerIdle   float64 // watts
	powerActive float64 // extra watts at 100% cpu
}

// NodeSpec configures a node.
type NodeSpec struct {
	ID          string
	Devices     []DeviceSpec
	FS          FSInfo
	MemTotal    int64
	PowerIdle   float64
	PowerActive float64
}

func newNode(spec NodeSpec) *Node {
	n := &Node{
		ID:          spec.ID,
		online:      true,
		devices:     make(map[string]*Device, len(spec.Devices)),
		fs:          spec.FS,
		memTotal:    spec.MemTotal,
		powerIdle:   spec.PowerIdle,
		powerActive: spec.PowerActive,
	}
	for _, ds := range spec.Devices {
		n.devices[ds.Name] = newDevice(spec.ID, ds)
	}
	return n
}

// Device returns the named device, or nil.
func (n *Node) Device(name string) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.devices[name]
}

// Devices returns all devices sorted by name.
func (n *Node) Devices() []*Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Device, 0, len(n.devices))
	names := make([]string, 0, len(n.devices))
	for name := range n.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, n.devices[name])
	}
	return out
}

// FS returns the node's filesystem characteristics.
func (n *Node) FS() FSInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fs
}

// Online reports node liveness.
func (n *Node) Online() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.online
}

// SetOnline changes node liveness (fault injection).
func (n *Node) SetOnline(v bool) {
	n.mu.Lock()
	n.online = v
	n.mu.Unlock()
}

// SetCPULoad sets the synthetic CPU utilization in [0,1].
func (n *Node) SetCPULoad(l float64) {
	if l < 0 {
		l = 0
	}
	if l > 1 {
		l = 1
	}
	n.mu.Lock()
	n.cpuLoad = l
	n.mu.Unlock()
}

// CPULoad returns the synthetic CPU utilization.
func (n *Node) CPULoad() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cpuLoad
}

// Mem returns (used, total) memory bytes.
func (n *Node) Mem() (used, total int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.memUsed, n.memTotal
}

// PowerWatts returns the node's current power draw: idle + cpu-proportional
// active power + device transfer power.
func (n *Node) PowerWatts() float64 {
	n.mu.Lock()
	p := n.powerIdle + n.powerActive*n.cpuLoad
	devs := make([]*Device, 0, len(n.devices))
	for _, d := range n.devices {
		devs = append(devs, d)
	}
	n.mu.Unlock()
	for _, d := range devs {
		p += d.Snapshot().PowerWatts
	}
	return p
}

// TransfersPerSec sums device transfer rates.
func (n *Node) TransfersPerSec() float64 {
	sum := 0.0
	for _, d := range n.Devices() {
		sum += d.Snapshot().TransfersPerSec
	}
	return sum
}

// Cluster is the simulated machine room.
type Cluster struct {
	mu    sync.Mutex
	nodes map[string]*Node
	order []string
	net   *Network
	jobs  *JobRegistry
	now   time.Time
}

// New creates an empty cluster whose simulated clock starts at start.
func New(start time.Time) *Cluster {
	return &Cluster{
		nodes: make(map[string]*Node),
		net:   newNetwork(),
		jobs:  newJobRegistry(),
		now:   start,
	}
}

// AddNode registers a node.
func (c *Cluster) AddNode(spec NodeSpec) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[spec.ID]; ok {
		return nil, fmt.Errorf("cluster: duplicate node %q", spec.ID)
	}
	n := newNode(spec)
	c.nodes[spec.ID] = n
	c.order = append(c.order, spec.ID)
	return n, nil
}

// Node returns the named node, or nil.
func (c *Cluster) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Nodes returns all nodes in insertion order.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// OnlineNodes returns the IDs of online nodes, sorted.
func (c *Cluster) OnlineNodes() []string {
	var out []string
	for _, n := range c.Nodes() {
		if n.Online() {
			out = append(out, n.ID)
		}
	}
	sort.Strings(out)
	return out
}

// Devices returns every device of every node.
func (c *Cluster) Devices() []*Device {
	var out []*Device
	for _, n := range c.Nodes() {
		out = append(out, n.Devices()...)
	}
	return out
}

// DevicesByTier returns every device in the given tier.
func (c *Cluster) DevicesByTier(t Tier) []*Device {
	var out []*Device
	for _, d := range c.Devices() {
		if d.Spec().Tier == t {
			out = append(out, d)
		}
	}
	return out
}

// Network returns the network model.
func (c *Cluster) Network() *Network { return c.net }

// Jobs returns the Slurm-like allocation registry.
func (c *Cluster) Jobs() *JobRegistry { return c.jobs }

// Now returns the simulated time.
func (c *Cluster) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Step advances simulated time by dt and closes every device's accounting
// window, making fresh per-second rates observable.
func (c *Cluster) Step(dt time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(dt)
	c.mu.Unlock()
	for _, d := range c.Devices() {
		d.step(dt)
	}
}

// Network models ping latency: one base latency for every pair of nodes.
type Network struct {
	mu  sync.Mutex
	def time.Duration
	jit float64 // +- fraction of base
	rng *rand.Rand
}

func newNetwork() *Network {
	return &Network{
		def: 200 * time.Microsecond, // 40Gb/s RoCE-ish
		jit: 0.1,
		rng: rand.New(rand.NewSource(1)),
	}
}

// SetDefaultLatency sets the base latency between two nodes.
func (n *Network) SetDefaultLatency(d time.Duration) {
	n.mu.Lock()
	n.def = d
	n.mu.Unlock()
}

// Ping returns a jittered round-trip time between two nodes.
func (n *Network) Ping(a, b string) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	base := n.def
	if a == b {
		base = 10 * time.Microsecond
	}
	j := 1 + n.jit*(n.rng.Float64()*2-1)
	return time.Duration(float64(base) * j)
}

// Job is one Slurm-like allocation (Table 1 row 15).
type Job struct {
	ID           int
	Name         string
	Nodes        []string
	ProcsPerNode int
	BytesRead    int64
	BytesWritten int64
	Started      time.Time
}

// JobRegistry tracks running jobs.
type JobRegistry struct {
	mu     sync.Mutex
	nextID int
	jobs   map[int]*Job
}

func newJobRegistry() *JobRegistry { return &JobRegistry{jobs: make(map[int]*Job)} }

// Submit registers a job and returns its ID.
func (r *JobRegistry) Submit(name string, nodes []string, procsPerNode int, started time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	ns := append([]string(nil), nodes...)
	r.jobs[r.nextID] = &Job{
		ID: r.nextID, Name: name, Nodes: ns, ProcsPerNode: procsPerNode, Started: started,
	}
	return r.nextID
}

// AccountIO adds bytes read/written to a job; unknown IDs are ignored.
func (r *JobRegistry) AccountIO(id int, read, written int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		j.BytesRead += read
		j.BytesWritten += written
	}
}

// List returns all jobs ordered by ID.
func (r *JobRegistry) List() []Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, 0, len(r.jobs))
	for id := range r.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Job, 0, len(ids))
	for _, id := range ids {
		j := r.jobs[id]
		cp := *j
		cp.Nodes = append([]string(nil), j.Nodes...)
		out = append(out, cp)
	}
	return out
}
