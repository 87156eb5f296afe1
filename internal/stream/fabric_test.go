package stream

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
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
			Addr:              id,
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

// kill marks a node unreachable and evicts it from every peer cache so the
// next replication attempt re-dials (and fails) instead of reusing the
// in-process reference.
func (f *testFabric) kill(id string) {
	f.down[id] = true
	for _, n := range f.nodes {
		n.mu.Lock()
		delete(n.peers, id)
		delete(n.routes, id)
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

// TestFabricTCP runs a 3-node fabric over real TCP servers: the client is
// pointed at a follower, follows the redirect, and its acked publishes
// survive on the replicas; the lease proxy serves a remote node.
func TestFabricTCP(t *testing.T) {
	clock := sim.Wall{}
	ring := cluster.NewRing(16)
	table := cluster.NewLeaseTable(clock, 3*time.Second)

	ids := []string{"n1", "n2", "n3"}
	// Two-phase bring-up, as a real deployment would: listen first, then
	// join the ring with the bound addresses, then attach the fabric nodes.
	brokers := make(map[string]*Broker)
	servers := make(map[string]*Server)
	for _, id := range ids {
		brokers[id] = NewBroker(1024)
		srv, err := Serve(brokers[id], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		servers[id] = srv
		defer srv.Close()
		ring.Join(id, srv.Addr())
	}
	for _, id := range ids {
		var leases cluster.LeaseService = table
		if id != ids[0] {
			// Non-coordinator processes proxy leases to the coordinator over
			// the wire.
			cc, err := Dial(mustAddr(t, ring, ids[0]))
			if err != nil {
				t.Fatalf("lease proxy dial: %v", err)
			}
			defer cc.Close()
			leases = NewRemoteLeases(cc)
		}
		n, err := NewFabricNode(FabricConfig{
			ID: id, Addr: mustAddr(t, ring, id), Broker: brokers[id],
			Ring: ring, Leases: leases, ReplicationFactor: 3,
			LeaseTTL: 3 * time.Second, Clock: clock,
		})
		if err != nil {
			t.Fatalf("fabric node %s: %v", id, err)
		}
		servers[id].SetFabric(n)
	}

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
	c, err := Dial(followerAddr, WithSeeds(leaderAddr))
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer c.Close()
	id, err := publish1(ctx, c, topic, []byte("hello"))
	if err != nil {
		t.Fatalf("fabric publish: %v", err)
	}
	if c.Redirects() != 1 {
		t.Fatalf("redirects = %d, want 1", c.Redirects())
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
	clock := sim.Wall{}
	ring := cluster.NewRing(16)
	table := cluster.NewLeaseTable(clock, 3*time.Second)

	ids := []string{"n1", "n2", "n3"}
	brokers := make(map[string]*Broker)
	servers := make(map[string]*Server)
	nodes := make(map[string]*FabricNode)
	for _, id := range ids {
		brokers[id] = NewBroker(1024)
		srv, err := Serve(brokers[id], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		servers[id] = srv
		defer srv.Close()
		ring.Join(id, srv.Addr())
	}
	for _, id := range ids {
		var leases cluster.LeaseService = table
		if id != ids[0] {
			cc, err := Dial(mustAddr(t, ring, ids[0]))
			if err != nil {
				t.Fatalf("lease proxy dial: %v", err)
			}
			defer cc.Close()
			leases = NewRemoteLeases(cc)
		}
		n, err := NewFabricNode(FabricConfig{
			ID: id, Addr: mustAddr(t, ring, id), Broker: brokers[id],
			Ring: ring, Leases: leases, ReplicationFactor: 3,
			LeaseTTL: 3 * time.Second, Clock: clock,
		})
		if err != nil {
			t.Fatalf("fabric node %s: %v", id, err)
		}
		nodes[id] = n
		servers[id].SetFabric(n)
	}

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

	// Every node hammers both topics through its in-process route bus —
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
		if !found || !l.Valid(clock.Now()) || l.Holder != owners[i] || l.Epoch != 1 {
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

func mustAddr(t *testing.T, r *cluster.Ring, id string) string {
	t.Helper()
	a, ok := r.Addr(id)
	if !ok {
		t.Fatalf("no address for %s", id)
	}
	return a
}
