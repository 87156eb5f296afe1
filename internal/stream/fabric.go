package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fabric errors.
var (
	// ErrNotLeader rejects a publish sent to a replica that does not hold
	// the topic's leader lease; the concrete *NotLeaderError carries the
	// current leader so clients can redirect.
	ErrNotLeader = errors.New("stream: not leader")
	// ErrNoQuorum fails a publish whose append could not be replicated to a
	// quorum of the topic's replica set; the tuple is NOT acked and the
	// caller must retry (or store-and-forward it). It is transient.
	ErrNoQuorum = errors.New("stream: replication quorum not reached")
)

// NotLeaderError is the redirect a non-leader replica answers publishes
// with. LeaderID/LeaderAddr may be empty when no lease is standing and this
// node is not a candidate (the client should retry against the preferred
// owner it may learn from Topology).
type NotLeaderError struct {
	Topic      string
	LeaderID   string
	LeaderAddr string
}

// Error renders the redirect in the fixed wire shape parseNotLeader
// understands.
func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("%s; topic=%s leader=%s addr=%s", ErrNotLeader.Error(), e.Topic, e.LeaderID, e.LeaderAddr)
}

// Is makes errors.Is(err, ErrNotLeader) work for the concrete redirect.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// parseNotLeader decodes the wire form of a NotLeaderError; nil when msg is
// not one.
func parseNotLeader(msg string) *NotLeaderError {
	prefix := ErrNotLeader.Error() + "; "
	if !strings.HasPrefix(msg, prefix) {
		return nil
	}
	nl := &NotLeaderError{}
	for _, field := range strings.Fields(msg[len(prefix):]) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		switch k {
		case "topic":
			nl.Topic = v
		case "leader":
			nl.LeaderID = v
		case "addr":
			nl.LeaderAddr = v
		}
	}
	return nl
}

// Peer is the surface one fabric node needs of another: the full Bus (for
// forwarding and catch-up reads) plus the replication probes. Both a
// *FabricNode (in-process fabrics, deterministic sims) and a *Client (TCP
// fabrics) satisfy it.
type Peer interface {
	Bus
	// Replicate is a two-phase exchange. The call puts a leader's append
	// stream for the replica on the wire under an epoch (an in-process peer
	// applies it there and then); the returned wait, which the caller must
	// call, gives the replica's resulting tail ID. Between the two a leader
	// reaches its other followers, so a publish costs one round trip, not one
	// per follower. A caller with several waits outstanding, on whatever
	// peers, calls them in the order it got them: a peer hands its answers
	// out in request order, and waiting for a later one first can deadlock
	// with another caller. No context: once the leader has appended,
	// replication runs to its end on the peer's own deadline.
	Replicate(topic string, epoch uint64, entries []Entry) (wait func() (uint64, error))
	// TopicTail returns the replica's (epoch, lastID) for topic.
	TopicTail(ctx context.Context, topic string) (epoch, lastID uint64, err error)
}

// NodeInfo is one fabric member, as reported by Topology.
type NodeInfo struct {
	ID   string
	Addr string
	Self bool
}

// ReplicaStatus is the per-topic replication view a node reports: the
// fencing epoch, the lease holder, and (on the leader) the worst follower
// lag in entries.
type ReplicaStatus struct {
	Topic    string
	Epoch    uint64
	Leader   string
	IsLeader bool
	Lag      uint64
}

// DefaultReplicationFactor is how many copies (leader included) each topic
// keeps when not configured.
const DefaultReplicationFactor = 2

// FabricConfig assembles one node of a replicated broker fabric.
type FabricConfig struct {
	// ID is this node's fabric identity; the ring holds its address.
	ID string
	// Broker is the node's local log store.
	Broker *Broker
	// Ring places topics; all nodes must build it from the same member list.
	Ring *cluster.Ring
	// Leases is the coordination service granting leader leases. In-process
	// fabrics share one *cluster.LeaseTable; TCP fabrics proxy to the
	// coordinator node via RemoteLeases.
	Leases cluster.LeaseService
	// ReplicationFactor is copies per topic, leader included (0: default 2;
	// clamped to the member count). Quorum is factor/2+1.
	ReplicationFactor int
	// LeaseTTL mirrors the lease table's grant duration; the maintenance
	// loop ticks at a third of it (0: cluster.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Clock drives lease-expiry checks and the maintenance loop (nil: wall).
	Clock sim.Clock
	// PeerDial resolves a member into a Peer (nil: stream.Dial by address).
	PeerDial func(id, addr string) (Peer, error)
	// Obs, if non-nil, receives the fabric instruments.
	Obs *obs.Registry
}

// FabricNode is one member of a replicated broker fabric. It wraps the
// node's local Broker with consistent-hash topic placement, leader leases
// with epoch fencing, synchronous quorum replication of the append stream,
// and follower promotion (with catch-up before serving) on lease expiry.
//
// Reads (Latest/Range/Follow) are served from the local replica; FabricNode
// therefore implements Bus. Publishes are only accepted while this node holds
// the topic's leader lease — otherwise they fail with a *NotLeaderError
// redirect.
type FabricNode struct {
	id     string
	broker *Broker
	ring   *cluster.Ring
	leases cluster.LeaseService
	rf     int
	ttl    time.Duration
	clock  sim.Clock
	dial   func(id, addr string) (Peer, error)

	mu     sync.Mutex
	topics map[string]*topicState
	// peers carries this node's internal RPCs (replicate, tail probes,
	// epoch beacons), whose remote handlers are broker-local and always
	// complete in one round trip. routes carries forwarded user traffic
	// (redirected publishes, remote reads), which can block on the remote
	// leader's replication. Keeping them on separate connections means an
	// epoch beacon or append stream is never queued behind a forwarded
	// publish that is itself waiting on this node — the cross-node cycle
	// that melts a live fabric.
	peers  map[string]Peer
	routes map[string]Peer
	stop   func() // ends the maintenance loop; nil: not running

	failovers atomic.Uint64

	obsFailovers *obs.Counter
	obsFenced    *obs.Counter
	obsNotLeader *obs.Counter
	obsReplErr   *obs.Counter
	obsReplEnt   *obs.Counter
	obsEpoch     *obs.Gauge
}

// topicState is everything a node keeps about one topic, looked up once per
// publish.
type topicState struct {
	// appendMu serializes the append+replicate critical section per TOPIC
	// so every follower observes the leader's append stream in log order. A
	// node-wide lock here convoys every topic behind one in-flight
	// replication round trip and can deadlock two nodes leading different
	// topics that replicate to each other (each holds its lock while
	// waiting on the other's publish queue) — only client deadlines would
	// break the cycle, stalling lease renewals past their TTL.
	appendMu sync.Mutex
	// lease is this node's cached view of the topic's leader lease (nil:
	// none). Tick keeps it fresh; every publish and Status read it.
	lease atomic.Pointer[cluster.Lease]
	// followers is the topic's replica set less this node, in ring order,
	// resolved when the topic is first seen: the ring's membership is fixed
	// before a node serves.
	followers []follower
}

// follower is one other replica of a topic, as its leader sees it.
type follower struct {
	id string
	// peer and wait belong to the holder of appendMu: the replication
	// connection (dialed on first use) and the answer to the append in flight.
	peer Peer
	wait func() (uint64, error)
	tail atomic.Uint64 // last replicated ID; only ever raised
}

// raise records the follower's replicated tail.
func (f *follower) raise(lastID uint64) {
	for cur := f.tail.Load(); lastID > cur && !f.tail.CompareAndSwap(cur, lastID); {
		cur = f.tail.Load()
	}
}

// NewFabricNode builds (but does not start) a fabric node.
func NewFabricNode(cfg FabricConfig) (*FabricNode, error) {
	if cfg.ID == "" {
		return nil, errors.New("stream: fabric node needs an ID")
	}
	if cfg.Broker == nil || cfg.Ring == nil || cfg.Leases == nil {
		return nil, errors.New("stream: fabric node needs Broker, Ring, and Leases")
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = DefaultReplicationFactor
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = cluster.DefaultLeaseTTL
	}
	n := &FabricNode{
		id:     cfg.ID,
		broker: cfg.Broker,
		ring:   cfg.Ring,
		leases: cfg.Leases,
		rf:     cfg.ReplicationFactor,
		ttl:    cfg.LeaseTTL,
		clock:  sim.Or(cfg.Clock),
		dial:   cfg.PeerDial,
		topics: make(map[string]*topicState),
		peers:  make(map[string]Peer),
		routes: make(map[string]Peer),
	}
	if n.dial == nil {
		n.dial = func(id, addr string) (Peer, error) { return Dial(addr) }
	}
	n.obsFailovers = cfg.Obs.Counter("fabric_failovers_total")
	n.obsFenced = cfg.Obs.Counter("fabric_fenced_publishes_total")
	n.obsNotLeader = cfg.Obs.Counter("fabric_not_leader_total")
	n.obsReplErr = cfg.Obs.Counter("fabric_replicate_errors_total")
	n.obsReplEnt = cfg.Obs.Counter("fabric_replicate_entries_total")
	n.obsEpoch = cfg.Obs.Gauge("fabric_max_epoch")
	return n, nil
}

// ID returns the node's fabric identity.
func (n *FabricNode) ID() string { return n.id }

// Broker returns the node's local log store.
func (n *FabricNode) Broker() *Broker { return n.broker }

// Leases returns the node's coordination surface (served to peers by the
// coordinator's TCP server).
func (n *FabricNode) Leases() cluster.LeaseService { return n.leases }

// Failovers returns how many times this node promoted itself to leader of a
// topic previously led elsewhere.
func (n *FabricNode) Failovers() uint64 { return n.failovers.Load() }

// Start launches the maintenance loop: lease renewal for led topics and
// promotion probes for replicated ones, every LeaseTTL/3. Fabrics on a
// virtual clock drive Tick directly instead.
func (n *FabricNode) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stop != nil {
		return
	}
	period := n.ttl / 3
	if period <= 0 {
		period = time.Second
	}
	n.stop = sim.Every(n.clock, period, func() { n.Tick(context.Background()) })
}

// Stop terminates the maintenance loop and waits for a Tick in flight.
func (n *FabricNode) Stop() {
	n.mu.Lock()
	stop := n.stop
	n.stop = nil
	n.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// replicaSet returns the topic's replica node IDs in ring order.
func (n *FabricNode) replicaSet(topic string) []string {
	return n.ring.Replicas(topic, n.rf)
}

// isReplica reports whether this node is in the topic's replica set.
func (n *FabricNode) isReplica(topic string) bool {
	for _, id := range n.replicaSet(topic) {
		if id == n.id {
			return true
		}
	}
	return false
}

// quorum is how many copies (leader included) an append needs before it is
// acked.
func quorum(replicas int) int { return replicas/2 + 1 }

// peer returns (dialing and caching if needed) the Peer carrying this
// node's internal replication RPCs to a member.
func (n *FabricNode) peer(id string) (Peer, error) {
	return n.cachedPeer(id, n.peers)
}

// routePeer returns the member's Peer for forwarded user traffic
// (redirected publishes, remote reads) — a connection deliberately
// separate from peer()'s so replication never queues behind it.
func (n *FabricNode) routePeer(id string) (Peer, error) {
	return n.cachedPeer(id, n.routes)
}

func (n *FabricNode) cachedPeer(id string, cache map[string]Peer) (Peer, error) {
	n.mu.Lock()
	p, ok := cache[id]
	n.mu.Unlock()
	if ok {
		return p, nil
	}
	addr, ok := n.ring.Addr(id)
	if !ok {
		return nil, fmt.Errorf("stream: fabric: unknown member %q", id)
	}
	p, err := n.dial(id, addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if cached, ok := cache[id]; ok {
		p = cached
	} else {
		cache[id] = p
	}
	n.mu.Unlock()
	return p, nil
}

// topic returns the node's record for a topic, creating it on first use.
func (n *FabricNode) topic(name string) *topicState {
	n.mu.Lock()
	defer n.mu.Unlock()
	ts, ok := n.topics[name]
	if !ok {
		ts = &topicState{}
		for _, id := range n.replicaSet(name) {
			if id != n.id {
				ts.followers = append(ts.followers, follower{id: id})
			}
		}
		n.topics[name] = ts
	}
	return ts
}

// notLeaderErr builds the redirect for a topic led (or preferred) elsewhere.
func (n *FabricNode) notLeaderErr(topic, leaderID string) error {
	addr := ""
	if leaderID != "" {
		addr, _ = n.ring.Addr(leaderID)
	}
	n.obsNotLeader.Inc()
	return &NotLeaderError{Topic: topic, LeaderID: leaderID, LeaderAddr: addr}
}

// leaderLease returns a currently-valid lease held by this node for topic,
// acquiring (and catching up) if the lease is free and this node is a
// candidate. Any other outcome is a *NotLeaderError redirect.
func (n *FabricNode) leaderLease(ctx context.Context, ts *topicState, topic string) (cluster.Lease, error) {
	now := n.clock.Now()
	if cached := ts.lease.Load(); cached != nil && cached.Valid(now) {
		if cached.Holder == n.id {
			return *cached, nil
		}
		return cluster.Lease{}, n.notLeaderErr(topic, cached.Holder)
	}

	cur, found := n.leases.Holder(topic)
	if found && cur.Valid(now) {
		ts.lease.Store(&cur)
		if cur.Holder == n.id {
			return cur, nil
		}
		return cluster.Lease{}, n.notLeaderErr(topic, cur.Holder)
	}

	// Lease free (or expired): only replica-set members may take over.
	if !n.isReplica(topic) {
		owner, _ := n.ring.Owner(topic)
		return cluster.Lease{}, n.notLeaderErr(topic, owner)
	}
	l, got := n.leases.Acquire(topic, n.id)
	if !got {
		ts.lease.Store(&l)
		return cluster.Lease{}, n.notLeaderErr(topic, l.Holder)
	}
	promoted := found && cur.Holder != "" && cur.Holder != n.id
	// Catch up from the surviving replicas before serving: a follower may
	// have acked entries this node never saw (e.g. it was briefly
	// partitioned), and the new epoch must fence the deposed leader on every
	// replica before the first new append.
	n.catchUp(ctx, ts, topic, l.Epoch)
	if err := n.broker.SetEpoch(ctx, topic, l.Epoch); err != nil {
		return cluster.Lease{}, err
	}
	ts.lease.Store(&l)
	if promoted {
		n.failovers.Add(1)
		n.obsFailovers.Inc()
	}
	n.obsEpoch.Set(float64(l.Epoch))
	return l, nil
}

// catchUp pulls the acked suffix this node is missing from the most
// authoritative surviving replica — highest (epoch, tail) — and beacons the
// new epoch to every reachable replica (fencing the deposed leader). Peer
// errors are tolerated: an unreachable replica just cannot contribute.
func (n *FabricNode) catchUp(ctx context.Context, ts *topicState, topic string, epoch uint64) {
	localEpoch, local, _ := n.broker.TopicTail(ctx, topic)
	type replicaTail struct {
		f           *follower
		epoch, tail uint64
		p           Peer
	}
	var reachable []replicaTail
	var best *replicaTail
	for i := range ts.followers {
		f := &ts.followers[i]
		p, err := n.peer(f.id)
		if err != nil {
			continue
		}
		ep, tl, err := p.TopicTail(ctx, topic)
		if err != nil {
			continue
		}
		reachable = append(reachable, replicaTail{f: f, epoch: ep, tail: tl, p: p})
		rt := &reachable[len(reachable)-1]
		if best == nil || rt.epoch > best.epoch || (rt.epoch == best.epoch && rt.tail > best.tail) {
			best = rt
		}
	}
	if best != nil {
		from := local + 1
		if best.epoch > localEpoch && best.tail > 0 {
			// This node missed at least one leadership epoch, so even an
			// equal-length local log may hold a divergent never-acked tail.
			// Adopt the authoritative replica's retained log wholesale —
			// ReplicateAppend under the new epoch truncates the conflict.
			from = 1
		}
		if best.tail >= from {
			if entries, err := best.p.Range(ctx, topic, from, best.tail, 0); err == nil && len(entries) > 0 {
				n.broker.ReplicateAppend(ctx, topic, epoch, entries)
			}
		}
	}
	// Epoch beacon: even an up-to-date replica must learn the new epoch so
	// the old leader's in-flight appends are rejected everywhere.
	_, local, _ = n.broker.TopicTail(ctx, topic)
	for _, rt := range reachable {
		if _, err := rt.p.Replicate(topic, epoch, nil)(); err == nil {
			rt.f.raise(min(rt.tail, local))
		}
	}
}

// PublishBatch appends the batch to the local log iff this node holds the
// topic's leader lease, then synchronously replicates it to the topic's
// followers. The batch is acked (returned without error) only once a
// quorum of the replica set — leader included — holds it; otherwise it
// fails with the transient ErrNoQuorum and the caller must retry, so a
// tuple is acked at most once but may be delivered more than once across a
// failover.
//
// ctx bounds the publish up to the local append. From there replication runs
// to its end whatever becomes of ctx, each follower on its peer's own
// deadline, and the publish reports what the replicas answered: a cancelled
// caller cannot leave one follower with the batch and the other without.
func (n *FabricNode) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	ts := n.topic(topic)
	lease, err := n.leaderLease(ctx, ts, topic)
	if err != nil {
		return 0, err
	}

	ts.appendMu.Lock()
	defer ts.appendMu.Unlock()
	// An epoch beacon may have fenced this topic locally after the lease was
	// cached: a higher local epoch means another node was elected. Reject
	// BEFORE the local append — otherwise this node's log grows a divergent
	// tail at the new epoch that replica-side dedup would never repair.
	if localEpoch := n.broker.Epoch(topic); localEpoch > lease.Epoch {
		return 0, n.fenced(ts, topic, fmt.Errorf("local epoch %d > lease epoch %d: %w", localEpoch, lease.Epoch, ErrEpochFenced))
	}
	first, err := n.broker.PublishBatch(ctx, topic, payloads)
	if err != nil {
		return 0, err
	}
	entries := make([]Entry, len(payloads))
	for i, p := range payloads {
		entries[i] = Entry{ID: first + uint64(i), Payload: p}
	}
	last := first + uint64(len(payloads)) - 1

	// Put the append on every follower's wire, then gather the answers: the
	// round trips overlap.
	for i := range ts.followers {
		f := &ts.followers[i]
		f.wait = n.replicate(f, topic, lease.Epoch, entries)
	}
	acks := 1 // the local append
	var fencedBy error
	settle := func(f *follower, tail uint64, rerr error) {
		if rerr != nil {
			n.obsReplErr.Inc()
			if fencedBy == nil && errors.Is(rerr, ErrEpochFenced) {
				fencedBy = rerr
			}
			return
		}
		acks++
		f.raise(tail)
		n.obsReplEnt.Add(uint64(len(entries)))
	}
	// Answers are awaited in the order their requests went out, the oldest
	// first — a connection hands its answers out in FIFO order, and a leader
	// that waited for a later answer with an earlier one unread could close a
	// cycle with another topic's publish. So a follower that reports a gap
	// (it missed an earlier batch) is sent the backfill from its tail at once,
	// and the answer to that is read after every first answer.
	for i := range ts.followers {
		f := &ts.followers[i]
		tail, rerr := f.wait()
		f.wait = nil
		if errors.Is(rerr, ErrReplicaGap) {
			if fill, ferr := n.broker.Range(context.Background(), topic, tail+1, last, 0); ferr == nil {
				f.wait = f.peer.Replicate(topic, lease.Epoch, fill)
				continue
			}
		}
		settle(f, tail, rerr)
	}
	for i := range ts.followers {
		if f := &ts.followers[i]; f.wait != nil {
			tail, rerr := f.wait()
			f.wait = nil
			settle(f, tail, rerr)
		}
	}
	if fencedBy != nil {
		// A replica is already on a newer epoch: this node was deposed
		// between its lease check and the append. The batch is NOT acked.
		return 0, n.fenced(ts, topic, fencedBy)
	}
	if need := quorum(len(ts.followers) + 1); acks < need {
		return 0, fmt.Errorf("publish %q: %d/%d acks: %w", topic, acks, need, ErrNoQuorum)
	}
	return first, nil
}

// replicate starts the two-phase exchange with one follower, dialing its
// replication connection on first use. The caller holds the topic's appendMu.
func (n *FabricNode) replicate(f *follower, topic string, epoch uint64, entries []Entry) (wait func() (uint64, error)) {
	if f.peer == nil {
		p, err := n.peer(f.id)
		if err != nil {
			return func() (uint64, error) { return 0, err }
		}
		f.peer = p
	}
	return f.peer.Replicate(topic, epoch, entries)
}

// fenced forgets the cached lease of a topic this node turned out to have
// been deposed from, and builds the publish error.
func (n *FabricNode) fenced(ts *topicState, topic string, cause error) error {
	ts.lease.Store(nil)
	n.obsFenced.Inc()
	return fmt.Errorf("publish %q: %w", topic, cause)
}

// Replicate implements Peer: it applies a leader's append stream to this
// node's local replica with epoch fencing, in the call itself — a fabric of
// in-process peers starts no goroutine and stays deterministic — and the
// returned wait only reports the outcome.
func (n *FabricNode) Replicate(topic string, epoch uint64, entries []Entry) (wait func() (uint64, error)) {
	tail, err := n.broker.ReplicateAppend(context.Background(), topic, epoch, entries)
	return func() (uint64, error) { return tail, err }
}

// TopicTail implements Peer.
func (n *FabricNode) TopicTail(ctx context.Context, topic string) (epoch, lastID uint64, err error) {
	return n.broker.TopicTail(ctx, topic)
}

// Latest implements Bus (served from the local replica).
func (n *FabricNode) Latest(ctx context.Context, topic string) (Entry, error) {
	return n.broker.Latest(ctx, topic)
}

// Range implements Bus (served from the local replica).
func (n *FabricNode) Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error) {
	return n.broker.Range(ctx, topic, from, to, max)
}

// Follow implements Bus (served from the local replica).
func (n *FabricNode) Follow(ctx context.Context, topic string, afterID uint64) (Cursor, error) {
	return n.broker.Follow(ctx, topic, afterID)
}

// Tick runs one maintenance pass: renew the leases this node holds, adopt
// newly-observed leaders, and — when a lease has expired and this node is
// in the replica set — promote itself (acquire, catch up, serve). Fabrics
// on a virtual clock call Tick explicitly; Start drives it on wall time.
func (n *FabricNode) Tick(ctx context.Context) {
	now := n.clock.Now()
	topics := n.broker.Topics()
	// Renew every held lease first: a renewal is one cheap coordination
	// call, while the probe/promotion pass below can spend several peer
	// round trips per topic (catch-up, beacons, dials to dead nodes). Doing
	// them in one interleaved loop lets a slow promotion starve renewals of
	// later topics past their TTL, churning epochs fabric-wide.
	pending := topics[:0]
	for _, topic := range topics {
		ts := n.topic(topic)
		if cached := ts.lease.Load(); cached != nil && cached.Holder == n.id && cached.Valid(now) {
			if renewed, ok := n.leases.Renew(topic, n.id, cached.Epoch); ok {
				ts.lease.Store(&renewed)
				continue
			}
			ts.lease.Store(nil) // deposed: fall through and re-resolve
		}
		pending = append(pending, topic)
	}
	for _, topic := range pending {
		ts := n.topic(topic)
		cur, found := n.leases.Holder(topic)
		if found && cur.Valid(now) {
			ts.lease.Store(&cur)
			continue
		}
		if !n.isReplica(topic) {
			ts.lease.Store(nil)
			continue
		}
		// Lease free or expired: try to take over (promotion path).
		n.leaderLease(ctx, ts, topic)
	}
}

// Status reports the per-topic replication view of this node, sorted by
// topic. Lag is only meaningful on the leader: the worst follower's
// distance, in entries, from the local tail. The leader comes from the lease
// cache Tick keeps fresh — a health probe costs no coordinator call, and
// answers while the coordinator is away; only a topic without a valid cached
// lease (new since the last Tick) is asked about.
func (n *FabricNode) Status() []ReplicaStatus {
	now := n.clock.Now()
	topics := n.broker.Topics()
	out := make([]ReplicaStatus, 0, len(topics))
	for _, topic := range topics {
		ts := n.topic(topic)
		st := ReplicaStatus{Topic: topic, Epoch: n.broker.Epoch(topic)}
		l := ts.lease.Load()
		if l == nil || !l.Valid(now) {
			if cur, found := n.leases.Holder(topic); found && cur.Valid(now) {
				l = &cur
				ts.lease.Store(l)
			}
		}
		if l != nil && l.Valid(now) {
			st.Leader = l.Holder
			st.IsLeader = l.Holder == n.id
		}
		if st.IsLeader {
			_, local, _ := n.broker.TopicTail(context.Background(), topic)
			for i := range ts.followers {
				if tail := ts.followers[i].tail.Load(); local > tail && local-tail > st.Lag {
					st.Lag = local - tail
				}
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// Topology reports the fabric membership.
func (n *FabricNode) Topology() []NodeInfo {
	ids := n.ring.Members()
	out := make([]NodeInfo, 0, len(ids))
	for _, id := range ids {
		addr, _ := n.ring.Addr(id)
		out = append(out, NodeInfo{ID: id, Addr: addr, Self: id == n.id})
	}
	return out
}

// Route returns a Bus for in-process producers (vertices) colocated with
// this node: publishes that hit a topic led elsewhere are transparently
// forwarded to the leader (one hop), and reads of topics this node does not
// replicate are forwarded to the topic's owner. Topics this node leads or
// replicates are served locally.
func (n *FabricNode) Route() Bus { return &routeBus{n: n} }

type routeBus struct{ n *FabricNode }

// forward resolves the Peer to forward a publish to after a redirect.
func (r *routeBus) forward(nl *NotLeaderError) (Peer, bool) {
	if nl.LeaderID == "" || nl.LeaderID == r.n.id {
		return nil, false
	}
	p, err := r.n.routePeer(nl.LeaderID)
	if err != nil {
		return nil, false
	}
	return p, true
}

func (r *routeBus) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	first, err := r.n.PublishBatch(ctx, topic, payloads)
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		if p, ok := r.forward(nl); ok {
			return p.PublishBatch(ctx, topic, payloads)
		}
	}
	return first, err
}

// readBus picks the local replica when this node replicates topic, else the
// topic's owner.
func (r *routeBus) readBus(topic string) Bus {
	if r.n.isReplica(topic) {
		return r.n.broker
	}
	owner, ok := r.n.ring.Owner(topic)
	if !ok || owner == r.n.id {
		return r.n.broker
	}
	p, err := r.n.routePeer(owner)
	if err != nil {
		return r.n.broker
	}
	return p
}

func (r *routeBus) Latest(ctx context.Context, topic string) (Entry, error) {
	return r.readBus(topic).Latest(ctx, topic)
}

func (r *routeBus) Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error) {
	return r.readBus(topic).Range(ctx, topic, from, to, max)
}

func (r *routeBus) Follow(ctx context.Context, topic string, afterID uint64) (Cursor, error) {
	return r.readBus(topic).Follow(ctx, topic, afterID)
}

var (
	_ Bus  = (*FabricNode)(nil)
	_ Peer = (*FabricNode)(nil)
	_ Bus  = (*routeBus)(nil)
)
