package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testFabric is an in-process fabric: every node shares one ring and one
// lease table, and peers are resolved by ID through a dial map that can
// "kill" nodes (dial refusals) for failover tests.
type testFabric struct {
	clock *sim.Virtual
	ring  *cluster.Ring
	table *cluster.LeaseTable
	nodes map[string]*FabricNode
	down  map[string]bool
}

func newTestFabric(t *testing.T, ids []string, rf int, ttl time.Duration) *testFabric {
	t.Helper()
	f := &testFabric{
		clock: sim.NewVirtual(time.Unix(0, 0)),
		ring:  cluster.NewRing(16),
		nodes: make(map[string]*FabricNode),
		down:  make(map[string]bool),
	}
	f.table = cluster.NewLeaseTable(f.clock, ttl)
	for _, id := range ids {
		f.ring.Join(id, id) // in-process: the address IS the id
	}
	dial := func(id, addr string) (Peer, error) {
		if f.down[id] {
			return nil, fmt.Errorf("fabric test: node %s is down", id)
		}
		n, ok := f.nodes[id]
		if !ok {
			return nil, fmt.Errorf("fabric test: unknown node %s", id)
		}
		return n, nil
	}
	for _, id := range ids {
		n, err := NewFabricNode(FabricConfig{
			ID:                id,
			Broker:            NewBroker(1024),
			Ring:              f.ring,
			Leases:            f.table,
			ReplicationFactor: rf,
			LeaseTTL:          ttl,
			Clock:             f.clock,
			PeerDial:          dial,
		})
		if err != nil {
			t.Fatalf("NewFabricNode(%s): %v", id, err)
		}
		f.nodes[id] = n
	}
	return f
}

// publish1 publishes one payload through any Publisher: a batch of one.
func publish1(ctx context.Context, p Publisher, topic string, payload []byte) (uint64, error) {
	return p.PublishBatch(ctx, topic, [][]byte{payload})
}

// kill marks a node unreachable and evicts it from every peer cache — the
// node's and each topic's — so the next replication attempt re-dials (and
// fails) instead of reusing the in-process reference.
func (f *testFabric) kill(id string) {
	f.down[id] = true
	for _, n := range f.nodes {
		n.mu.Lock()
		delete(n.peers, id)
		delete(n.routes, id)
		for _, ts := range n.topics {
			for i := range ts.followers {
				if ts.followers[i].id == id {
					ts.followers[i].peer = nil
				}
			}
		}
		n.mu.Unlock()
	}
}

// leaderFollowers returns the topic's replica set split into (leader-
// preferred owner, the rest), before any lease exists.
func (f *testFabric) replicas(topic string) []string {
	return f.ring.Replicas(topic, f.nodes[f.ring.Members()[0]].rf)
}

func TestFabricReplicatesToQuorumAndRedirects(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	ctx := context.Background()
	const topic = "fab.metrics"
	reps := f.replicas(topic)
	leader, follower := f.nodes[reps[0]], f.nodes[reps[1]]

	first, err := publish1(ctx, leader, topic, []byte("v1"))
	if err != nil {
		t.Fatalf("leader publish: %v", err)
	}
	if _, err := leader.PublishBatch(ctx, topic, [][]byte{[]byte("v2"), []byte("v3")}); err != nil {
		t.Fatalf("leader batch publish: %v", err)
	}
	// Synchronous replication: the followers hold the acked entries already.
	for _, id := range reps[1:] {
		entries, err := f.nodes[id].Broker().Range(ctx, topic, first, first+2, 0)
		if err != nil || len(entries) != 3 {
			t.Fatalf("follower %s range: %v entries, err %v", id, len(entries), err)
		}
	}
	if st := leader.Status(); len(st) != 1 || !st[0].IsLeader || st[0].Lag != 0 || st[0].Epoch != 1 {
		t.Fatalf("leader status: %+v", st)
	}

	// A publish to a follower is rejected with a redirect to the leader —
	// never silently accepted.
	_, err = publish1(ctx, follower, topic, []byte("nope"))
	var nl *NotLeaderError
	if !errors.As(err, &nl) || nl.LeaderID != leader.ID() {
		t.Fatalf("follower publish: got %v, want NotLeaderError -> %s", err, leader.ID())
	}
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("redirect must match ErrNotLeader: %v", err)
	}
	// The redirect survives a trip through the wire error codec.
	if back := remoteError(errPayload(nl)); !errors.Is(back, ErrNotLeader) {
		t.Fatalf("redirect did not round-trip the wire: %v", back)
	} else if got, _ := back.(*NotLeaderError); got == nil || got.LeaderAddr != nl.LeaderAddr {
		t.Fatalf("redirect lost the leader address: %#v", back)
	}
}

func TestFabricQuorumMissRejectsPublish(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	ctx := context.Background()
	const topic = "fab.quorum"
	reps := f.replicas(topic)
	leader := f.nodes[reps[0]]

	if _, err := publish1(ctx, leader, topic, []byte("ok")); err != nil {
		t.Fatalf("publish with full fabric: %v", err)
	}
	// Both followers down: 1/2 acks, the append is NOT acked.
	f.kill(reps[1])
	f.kill(reps[2])
	_, err := publish1(ctx, leader, topic, []byte("lost"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("publish without quorum: got %v, want ErrNoQuorum", err)
	}
	if !IsTransient(err) {
		t.Fatal("quorum miss must classify as transient so publishers buffer and retry")
	}
	// One follower back: quorum (2/3) again; the retry re-appends and a gap
	// backfill brings the follower the unacked leader-local suffix too.
	delete(f.down, reps[1])
	id, err := publish1(ctx, leader, topic, []byte("retried"))
	if err != nil {
		t.Fatalf("publish after follower recovery: %v", err)
	}
	entries, err := f.nodes[reps[1]].Broker().Range(ctx, topic, 1, id, 0)
	if err != nil || len(entries) != int(id) {
		t.Fatalf("follower backfill: %d entries to id %d, err %v", len(entries), id, err)
	}
}

// TestFabricEpochFencingStaleLeader is the acceptance check: a leader whose
// lease was revoked behind its back (its cache still says valid) gets its
// publish rejected by the followers' higher epoch — never silently accepted.
func TestFabricEpochFencingStaleLeader(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	ctx := context.Background()
	const topic = "fab.fence"
	reps := f.replicas(topic)
	stale, next := f.nodes[reps[0]], f.nodes[reps[1]]

	if _, err := publish1(ctx, stale, topic, []byte("v1")); err != nil {
		t.Fatalf("initial publish: %v", err)
	}
	// Revoke the lease centrally; the old leader's cached copy still looks
	// valid, so it will try to serve the next publish.
	f.table.Expire(topic)
	next.Tick(ctx) // promotion: acquire epoch 2, catch up, beacon the epoch
	if got := next.Broker().Epoch(topic); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}
	if next.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", next.Failovers())
	}

	_, err := publish1(ctx, stale, topic, []byte("stale-write"))
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale leader publish: got %v, want ErrEpochFenced", err)
	}
	// No replica accepted the fenced write.
	for _, id := range reps[1:] {
		if _, last, _ := f.nodes[id].Broker().TopicTail(ctx, topic); last != 1 {
			t.Fatalf("replica %s tail = %d after fenced write, want 1", id, last)
		}
	}
	// The deposed leader drops its cache: the next publish redirects.
	var nl *NotLeaderError
	if _, err := publish1(ctx, stale, topic, []byte("again")); !errors.As(err, &nl) || nl.LeaderID != next.ID() {
		t.Fatalf("deposed leader second publish: got %v, want redirect to %s", err, next.ID())
	}
	// New leader serves, and replication onto the deposed leader truncates
	// its divergent (never-acked) local tail.
	id, err := publish1(ctx, next, topic, []byte("v2"))
	if err != nil {
		t.Fatalf("new leader publish: %v", err)
	}
	got, err := stale.Broker().Range(ctx, topic, 1, id, 0)
	if err != nil || len(got) != 2 || string(got[1].Payload) != "v2" {
		t.Fatalf("deposed leader log after truncate+replicate: %v err %v", got, err)
	}
}

func TestFabricPromotionCatchesUpBeforeServing(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	ctx := context.Background()
	const topic = "fab.catchup"
	reps := f.replicas(topic)
	leader, up, lagging := f.nodes[reps[0]], f.nodes[reps[1]], f.nodes[reps[2]]

	for i := 0; i < 5; i++ {
		if _, err := publish1(ctx, leader, topic, []byte{byte('a' + i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	// Partition the third replica: the next appends reach only reps[1]
	// (still a 2/3 quorum), so reps[2] falls behind.
	f.kill(reps[2])
	for i := 5; i < 8; i++ {
		if _, err := publish1(ctx, leader, topic, []byte{byte('a' + i)}); err != nil {
			t.Fatalf("publish %d during partition: %v", i, err)
		}
	}
	if _, last, _ := lagging.Broker().TopicTail(ctx, topic); last != 5 {
		t.Fatalf("lagging replica tail = %d, want 5", last)
	}
	if st := leader.Status(); st[0].Lag != 3 {
		t.Fatalf("leader lag = %d, want 3", st[0].Lag)
	}

	// Leader dies; the partition heals; the LAGGING replica wins the next
	// election. It must adopt the acked suffix from the up-to-date replica
	// before serving.
	f.kill(reps[0])
	delete(f.down, reps[2])
	f.clock.Advance(4 * time.Second) // lease expires
	lagging.Tick(ctx)
	if _, last, _ := lagging.Broker().TopicTail(ctx, topic); last != 8 {
		t.Fatalf("promoted replica tail = %d, want 8 (catch-up before serving)", last)
	}
	id, err := publish1(ctx, lagging, topic, []byte("post-failover"))
	if err != nil {
		t.Fatalf("publish after promotion: %v", err)
	}
	if id != 9 {
		t.Fatalf("post-failover id = %d, want 9 (monotone, no acked entry lost)", id)
	}
	// The surviving replica observed the new epoch and the new append.
	if epoch, last, _ := up.Broker().TopicTail(ctx, topic); epoch != 2 || last != 9 {
		t.Fatalf("surviving replica epoch/tail = %d/%d, want 2/9", epoch, last)
	}
}

// tcpFabric is a fabric over real loopback servers, brought up in two phases
// as a deployment would: listen first, join the ring with the bound
// addresses, then attach the fabric nodes. The first node holds the lease
// table; the others proxy their leases to it over the wire.
type tcpFabric struct {
	ring    *cluster.Ring
	table   *cluster.LeaseTable
	brokers map[string]*Broker
	nodes   map[string]*FabricNode
}

func startTCPFabric(t testing.TB, ids []string) *tcpFabric {
	t.Helper()
	clock := sim.Wall{}
	f := &tcpFabric{
		ring:    cluster.NewRing(16),
		table:   cluster.NewLeaseTable(clock, 3*time.Second),
		brokers: make(map[string]*Broker),
		nodes:   make(map[string]*FabricNode),
	}
	servers := make(map[string]*Server)
	for _, id := range ids {
		f.brokers[id] = NewBroker(1024)
		srv, err := Serve(f.brokers[id], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		servers[id] = srv
		t.Cleanup(func() { srv.Close() })
		f.ring.Join(id, srv.Addr())
	}
	for _, id := range ids {
		var leases cluster.LeaseService = f.table
		if id != ids[0] {
			cc, err := Dial(mustAddr(t, f.ring, ids[0]))
			if err != nil {
				t.Fatalf("lease proxy dial: %v", err)
			}
			t.Cleanup(func() { cc.Close() })
			leases = NewRemoteLeases(cc)
		}
		n, err := NewFabricNode(FabricConfig{
			ID: id, Broker: f.brokers[id],
			Ring: f.ring, Leases: leases, ReplicationFactor: len(ids),
			LeaseTTL: 3 * time.Second, Clock: clock,
		})
		if err != nil {
			t.Fatalf("fabric node %s: %v", id, err)
		}
		f.nodes[id] = n
		servers[id].SetFabric(n)
	}
	return f
}

// TestFabricTCP runs a 3-node fabric over real TCP servers: the client is
// pointed at a follower, follows the redirect, and its acked publishes
// survive on the replicas; the lease proxy serves a remote node.
func TestFabricTCP(t *testing.T) {
	f := startTCPFabric(t, []string{"n1", "n2", "n3"})
	ring, brokers := f.ring, f.brokers

	ctx := context.Background()
	const topic = "tcp.fab"
	reps := ring.Replicas(topic, 3)
	leaderAddr := mustAddr(t, ring, reps[0])
	followerAddr := mustAddr(t, ring, reps[1])

	// Leadership is first-acquire-wins: prime the preferred owner so the
	// follower has a standing lease to redirect to.
	prime, err := Dial(leaderAddr)
	if err != nil {
		t.Fatalf("prime dial: %v", err)
	}
	if _, err := publish1(ctx, prime, topic, []byte("prime")); err != nil {
		t.Fatalf("prime publish: %v", err)
	}
	prime.Close()

	// Dial the follower; fabric mode follows the redirect to the leader.
	reg := obs.NewRegistry()
	c, err := Dial(followerAddr, WithSeeds(leaderAddr), WithObs(reg))
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer c.Close()
	id, err := publish1(ctx, c, topic, []byte("hello"))
	if err != nil {
		t.Fatalf("fabric publish: %v", err)
	}
	if n := reg.Counter("stream_client_redirects_total").Value(); n != 1 {
		t.Fatalf("redirects = %d, want 1", n)
	}
	if c.Addr() != leaderAddr {
		t.Fatalf("client addr = %s, want leader %s", c.Addr(), leaderAddr)
	}
	// The acked entry is on every replica.
	for _, rid := range reps {
		if _, last, _ := brokers[rid].TopicTail(ctx, topic); last != id {
			t.Fatalf("replica %s tail = %d, want %d", rid, last, id)
		}
	}

	// Topology and replication status are served over the wire.
	topo, err := c.Topology(ctx)
	if err != nil || len(topo) != 3 {
		t.Fatalf("topology: %v err %v", topo, err)
	}
	st, err := c.ReplicationStatus(ctx)
	if err != nil || len(st) != 1 || st[0].Epoch != 1 || !st[0].IsLeader {
		t.Fatalf("replication status: %+v err %v", st, err)
	}

	// The lease proxy answers a remote holder query with the real lease.
	cc, err := Dial(mustAddr(t, ring, reps[1]))
	if err != nil {
		t.Fatalf("dial follower for lease query: %v", err)
	}
	defer cc.Close()
	l, found, err := cc.LeaseHolder(ctx, topic)
	if err != nil || !found || l.Holder != reps[0] || l.Epoch != 1 {
		t.Fatalf("remote lease holder: %+v found=%v err=%v", l, found, err)
	}
}

// TestFabricTCPConcurrentCrossLeaderPublishes regression-tests the live
// fabric against the publish convoy: two nodes each lead a topic and
// replicate to each other while both also forward publishes to the other's
// topic. A node-wide append+replicate lock — or internal replication RPCs
// sharing a connection with forwarded publishes — lets each node hold its
// lock while queued behind the other, a cross-node cycle that only client
// deadlines break (multi-second stalls, lease expiry, epoch churn). The
// fixed fabric must drain the whole barrage quickly and keep every lease
// at epoch 1.
func TestFabricTCPConcurrentCrossLeaderPublishes(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	f := startTCPFabric(t, ids)
	ring, table, brokers, nodes := f.ring, f.table, f.brokers, f.nodes

	// Two topics whose ring owners differ, each primed on its owner so
	// leadership is split across two nodes.
	ctx := context.Background()
	var topics []string
	var owners []string
	for i := 0; len(topics) < 2; i++ {
		topic := fmt.Sprintf("cross.topic.%d", i)
		owner, _ := ring.Owner(topic)
		if len(owners) == 1 && owner == owners[0] {
			continue
		}
		if _, err := publish1(ctx, nodes[owner], topic, []byte("prime")); err != nil {
			t.Fatalf("prime %s on %s: %v", topic, owner, err)
		}
		topics = append(topics, topic)
		owners = append(owners, owner)
	}

	// Plus two topics led by ONE node whose followers come in opposite ring
	// order: their publishes put appends on the same two connections in
	// opposite order. A leader that held one follower's connection while it
	// waited for the other's would close a hold-and-wait cycle inside itself.
	var orders []string
	for i := 0; len(orders) < 2; i++ {
		topic := fmt.Sprintf("cross.order.%d", i)
		var order string
		for _, id := range ring.Replicas(topic, 3) {
			if id != ids[0] {
				order += id
			}
		}
		if len(orders) == 1 && order == orders[0] {
			continue
		}
		if _, err := publish1(ctx, nodes[ids[0]], topic, []byte("prime")); err != nil {
			t.Fatalf("prime %s on %s: %v", topic, ids[0], err)
		}
		topics = append(topics, topic)
		owners = append(owners, ids[0])
		orders = append(orders, order)
	}

	// Every node hammers every topic through its in-process route bus —
	// leaders replicate cross-wise while followers forward cross-wise, all
	// concurrently.
	const perWorker = 20
	start := time.Now()
	errc := make(chan error, len(ids)*len(topics))
	for _, id := range ids {
		for _, topic := range topics {
			go func(bus Bus, topic, id string) {
				for i := 0; i < perWorker; i++ {
					if _, err := publish1(ctx, bus, topic, []byte(id)); err != nil {
						errc <- fmt.Errorf("%s -> %s: %w", id, topic, err)
						return
					}
				}
				errc <- nil
			}(nodes[id].Route(), topic, id)
		}
	}
	for i := 0; i < len(ids)*len(topics); i++ {
		if err := <-errc; err != nil {
			t.Fatalf("publish barrage: %v", err)
		}
	}
	// Well inside one lease TTL: the convoying fabric needed several client
	// deadlines (tens of seconds) to drain this barrage.
	if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
		t.Fatalf("barrage took %v, want well under the 3s lease TTL", elapsed)
	}

	// No epoch moved: leadership never churned under the load.
	for i, topic := range topics {
		l, found := table.Holder(topic)
		if !found || !l.Valid(time.Now()) || l.Holder != owners[i] || l.Epoch != 1 {
			t.Fatalf("lease %s after barrage: %+v (found=%v), want holder %s at epoch 1",
				topic, l, found, owners[i])
		}
		// Every replica holds the full acked stream: prime + all workers.
		want := uint64(1 + len(ids)*perWorker)
		for _, id := range ids {
			if _, last, _ := brokers[id].TopicTail(ctx, topic); last != want {
				t.Fatalf("replica %s tail for %s = %d, want %d", id, topic, last, want)
			}
		}
	}
}

// cancellingPeer ends the publisher's context as soon as the append it was
// handed has been applied: the moment between a leader's local append and its
// gathering the followers' answers.
type cancellingPeer struct {
	Peer
	cancel context.CancelFunc
}

func (p cancellingPeer) Replicate(topic string, epoch uint64, entries []Entry) func() (uint64, error) {
	wait := p.Peer.Replicate(topic, epoch, entries)
	p.cancel()
	return wait
}

// TestFabricCancelledPublishReachesEveryFollower: replication does not run on
// the publisher's context, so a publish cancelled after the local append is
// still on every replica (or would be on none) and reports what they said.
func TestFabricCancelledPublishReachesEveryFollower(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	const topic = "fab.cancel"
	reps := f.replicas(topic)
	leader := f.nodes[reps[0]]
	if _, err := publish1(context.Background(), leader, topic, []byte("v1")); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := &leader.topic(topic).followers[0]
	first.peer = cancellingPeer{Peer: first.peer, cancel: cancel}

	id, err := publish1(ctx, leader, topic, []byte("v2"))
	if err != nil || id != 2 {
		t.Fatalf("publish cancelled mid-replication: id %d err %v, want 2 <nil>", id, err)
	}
	if ctx.Err() == nil {
		t.Fatal("the context was never cancelled: the test did not test anything")
	}
	for _, rid := range reps {
		if _, last, _ := f.nodes[rid].Broker().TopicTail(context.Background(), topic); last != 2 {
			t.Fatalf("replica %s tail = %d after the cancelled publish, want 2 on every replica", rid, last)
		}
	}
	// Cancelled before the local append, the publish touches no log at all.
	if _, err := publish1(ctx, leader, topic, []byte("v3")); !errors.Is(err, context.Canceled) {
		t.Fatalf("publish on a cancelled context: %v, want context.Canceled", err)
	}
	for _, rid := range reps {
		if _, last, _ := f.nodes[rid].Broker().TopicTail(context.Background(), topic); last != 2 {
			t.Fatalf("replica %s tail = %d after the refused publish, want 2", rid, last)
		}
	}
}

// countingLeases counts Holder calls on their way to a lease service and,
// once cut, parks them: a coordinator that accepts the connection and never
// answers.
type countingLeases struct {
	cluster.LeaseService
	holders atomic.Int64
	cut     chan struct{} // non-nil: Holder blocks until it is closed
}

func (c *countingLeases) Holder(topic string) (cluster.Lease, bool) {
	c.holders.Add(1)
	if c.cut != nil {
		<-c.cut
		return cluster.Lease{}, false
	}
	return c.LeaseService.Holder(topic)
}

// TestFabricStatusAnswersFromLeaseCache: Status costs no coordinator call per
// topic while Tick keeps the lease cache warm — on the leader and on a
// follower — and so still answers, promptly, when the coordinator does not.
func TestFabricStatusAnswersFromLeaseCache(t *testing.T) {
	f := newTestFabric(t, []string{"n1", "n2", "n3"}, 3, 3*time.Second)
	ctx := context.Background()
	topics := []string{"fab.status.a", "fab.status.b", "fab.status.c"}
	leases := make(map[string]*countingLeases)
	for id, n := range f.nodes {
		leases[id] = &countingLeases{LeaseService: f.table}
		n.leases = leases[id]
	}
	leader := f.nodes["n1"]
	for _, topic := range topics {
		if _, err := publish1(ctx, leader, topic, []byte("v")); err != nil {
			t.Fatalf("publish %s: %v", topic, err)
		}
	}
	for id, n := range f.nodes {
		n.Tick(ctx) // a follower learns the leaders here
		leases[id].holders.Store(0)
		leases[id].cut = make(chan struct{})
		defer close(leases[id].cut)
	}
	for id, n := range f.nodes {
		done := make(chan []ReplicaStatus, 1)
		go func() { done <- n.Status() }()
		select {
		case st := <-done:
			if len(st) != len(topics) {
				t.Fatalf("%s: status has %d topics, want %d: %+v", id, len(st), len(topics), st)
			}
			for _, row := range st {
				if row.Leader != "n1" || row.IsLeader != (id == "n1") || row.Epoch != 1 {
					t.Fatalf("%s: status row %+v, want leader n1 at epoch 1", id, row)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Status waits for a coordinator that does not answer", id)
		}
		if got := leases[id].holders.Load(); got != 0 {
			t.Fatalf("%s: Status made %d Holder calls with a warm lease cache, want 0", id, got)
		}
	}
}

// muteConn is a server-side connection that, while mute is set, takes its
// answers and sends nothing: to its client the server is a black hole.
type muteConn struct {
	net.Conn
	mute *atomic.Bool
}

func (c muteConn) Write(p []byte) (int, error) {
	if c.mute.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestFabricBlackHoledFollowerCostsOneIOTimeout: a follower that takes the
// bytes and never answers holds a publish up for one IOTimeout — the one
// deadline over the exchange — and the other follower's ack, which arrived
// while the leader waited for the silent one, still makes the quorum.
func TestFabricBlackHoledFollowerCostsOneIOTimeout(t *testing.T) {
	const ioTimeout = 400 * time.Millisecond
	const topic = "fab.hole"
	clock := sim.Wall{}
	ring := cluster.NewRing(16)
	ring.Join("n1", "leader:0") // never dialed
	brokers := map[string]*Broker{"n1": NewBroker(0)}
	defer brokers["n1"].Close()
	mute := map[string]*atomic.Bool{"n2": new(atomic.Bool), "n3": new(atomic.Bool)}
	for id, flag := range mute {
		flag := flag
		brokers[id] = NewBroker(0)
		defer brokers[id].Close()
		srv, err := Serve(brokers[id], "127.0.0.1:0", func(s *Server) {
			s.wrap = func(c net.Conn) net.Conn { return muteConn{Conn: c, mute: flag} }
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ring.Join(id, srv.Addr())
	}
	var peers []*Client
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	leader, err := NewFabricNode(FabricConfig{
		ID: "n1", Broker: brokers["n1"], Ring: ring,
		Leases: cluster.NewLeaseTable(clock, time.Minute), ReplicationFactor: 3, Clock: clock,
		PeerDial: func(id, addr string) (Peer, error) {
			c, err := Dial(addr, func(o *options) { o.ioTimeout = ioTimeout })
			if err == nil {
				peers = append(peers, c)
			}
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := publish1(ctx, leader, topic, []byte("v1")); err != nil {
		t.Fatalf("publish with both followers answering: %v", err)
	}

	// Silence the follower the leader gathers FIRST: the other's answer sits
	// in the socket while the exchange's deadline runs out.
	followers := leader.topic(topic).followers
	silent, live := followers[0].id, followers[1].id
	mute[silent].Store(true)
	start := time.Now()
	id, err := publish1(ctx, leader, topic, []byte("v2"))
	elapsed := time.Since(start)
	if err != nil || id != 2 {
		t.Fatalf("publish with %s silent: id %d err %v, want 2 <nil> (2/3 acks)", silent, id, err)
	}
	if elapsed < ioTimeout || elapsed >= 2*ioTimeout {
		t.Fatalf("publish took %v, want one IOTimeout (%v): not none, not two", elapsed, ioTimeout)
	}
	if _, last, _ := brokers[live].TopicTail(ctx, topic); last != 2 {
		t.Fatalf("live follower %s tail = %d, want 2", live, last)
	}

	// It answers again: the leader re-dials it on the next publish.
	mute[silent].Store(false)
	if _, err := publish1(ctx, leader, topic, []byte("v3")); err != nil {
		t.Fatalf("publish after %s recovered: %v", silent, err)
	}
	for id, b := range brokers {
		if _, last, _ := b.TopicTail(ctx, topic); last != 3 {
			t.Fatalf("replica %s tail = %d, want 3", id, last)
		}
	}
}

// TestFabricTCPConcurrentBackfills: two topics of one leader whose followers
// come in opposite ring order, every publish finding both followers behind (a
// node that came up first and published alone is in this state on every
// topic). A backfill is a second request to a follower: a leader that waited
// for its answer while the first answer from the other follower was still
// unread — answers are read in FIFO order per connection — deadlocked with
// the other topic's publish doing the same the other way round.
func TestFabricTCPConcurrentBackfills(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	f := startTCPFabric(t, ids)
	leader := f.nodes["n1"]
	ctx := context.Background()
	var topics, orders []string
	for i := 0; len(topics) < 2; i++ {
		topic := fmt.Sprintf("backfill.%d", i)
		var order string
		for _, id := range f.ring.Replicas(topic, 3) {
			if id != "n1" {
				order += id
			}
		}
		if len(orders) == 1 && order == orders[0] {
			continue
		}
		if _, err := publish1(ctx, leader, topic, []byte("prime")); err != nil {
			t.Fatalf("prime %s: %v", topic, err)
		}
		topics, orders = append(topics, topic), append(orders, order)
	}

	const rounds = 300
	done := make(chan error, len(topics))
	for _, topic := range topics {
		go func(topic string) {
			for i := 0; i < rounds; i++ {
				// An entry only the leader holds: the next publish finds a gap
				// on both followers.
				if _, err := f.brokers["n1"].PublishBatch(ctx, topic, [][]byte{[]byte("local")}); err != nil {
					done <- err
					return
				}
				if _, err := publish1(ctx, leader, topic, []byte("v")); err != nil {
					done <- fmt.Errorf("%s round %d: %w", topic, i, err)
					return
				}
			}
			done <- nil
		}(topic)
	}
	for range topics {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent backfills on one leader's two connections deadlocked")
		}
	}
	for _, topic := range topics {
		for _, id := range ids {
			if _, last, _ := f.brokers[id].TopicTail(ctx, topic); last != 1+2*rounds {
				t.Fatalf("replica %s tail for %s = %d, want %d", id, topic, last, 1+2*rounds)
			}
		}
	}
}

func mustAddr(t testing.TB, r *cluster.Ring, id string) string {
	t.Helper()
	a, ok := r.Addr(id)
	if !ok {
		t.Fatalf("no address for %s", id)
	}
	return a
}
