package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stream"
)

// The fabric scenario's shape: the leader-lease TTL (retries that must wait
// out a dead leader's lease advance virtual time in thirds of it), how many
// replicated topics carry load, how many payloads each publish carries (the
// in-process stand-in for a client's coalesced flush, so a leader kill lands
// "mid batch" from the producer's point of view), and how many events the
// seeded chaos phase's schedule holds.
const (
	fabricTTL    = 3 * time.Second
	fabricTopics = 3
	fabricBatch  = 4
	chaosEvents  = 6
)

// FabricReport is the outcome of one RunFabric.
type FabricReport struct {
	Result
	// Schedule is the chaos-phase fault schedule (phases 0-5 are fixed).
	Schedule sim.Schedule

	Acked     uint64 // batches acknowledged to the producer
	Entries   uint64 // tuples inside acked batches
	Failovers uint64 // leader promotions, summed over nodes
	Fenced    uint64 // stale-leader publishes rejected by epoch fencing
	Redirects uint64 // not-leader redirects the producer followed
	NoQuorum  uint64 // publishes refused for lack of a replication quorum
}

// ackedBatch records one batch the fabric acknowledged: the ID the leader
// returned and the exact payloads, so the final audit can prove every acked
// tuple survives on every live replica.
type ackedBatch struct {
	firstID  uint64
	payloads [][]byte
}

// fabricEnv is a three-node in-process broker fabric on one virtual clock:
// nodes share a lease table and a placement ring, and reach each other
// through gated peers so the scenario can kill nodes and cut links
// deterministically.
type fabricEnv struct {
	clock *sim.Virtual
	start time.Time
	table *cluster.LeaseTable
	ring  *cluster.Ring
	nodes map[string]*stream.FabricNode
	order []string
	down  map[string]bool
	cut   map[string]bool // severed links, keyed linkKey(a, b)

	// onReplicate, when set, runs once: right after the next append a leader
	// hands to a follower has been applied there.
	onReplicate func()

	rng   *rand.Rand
	seq   int
	tr    transcript
	rep   *FabricReport
	acked map[string][]ackedBatch
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "<->" + b
}

// gatedPeer interposes the scenario's fault state between two fabric nodes:
// while either end is down, or the link is cut, every call fails.
type gatedPeer struct {
	gatedBus
	env *fabricEnv
	n   *stream.FabricNode
}

// peer is the link from one node to another.
func (env *fabricEnv) peer(from, to string) *gatedPeer {
	gate := func(string) error {
		if env.down[from] || env.down[to] {
			return fmt.Errorf("sim: node down on link %s->%s", from, to)
		}
		if env.cut[linkKey(from, to)] {
			return fmt.Errorf("sim: link %s->%s cut", from, to)
		}
		return nil
	}
	return &gatedPeer{gatedBus: gatedBus{inner: env.nodes[to], gate: gate}, env: env, n: env.nodes[to]}
}

func (g *gatedPeer) Replicate(topic string, epoch uint64, entries []stream.Entry) func() (uint64, error) {
	if err := g.gate("publish"); err != nil {
		return func() (uint64, error) { return 0, err }
	}
	wait := g.n.Replicate(topic, epoch, entries)
	if hook := g.env.onReplicate; hook != nil && len(entries) > 0 { // an append, not an epoch beacon
		g.env.onReplicate = nil
		hook()
	}
	return wait
}

func (g *gatedPeer) TopicTail(ctx context.Context, topic string) (uint64, uint64, error) {
	if err := g.gate("read"); err != nil {
		return 0, 0, err
	}
	return g.n.TopicTail(ctx, topic)
}

func newFabricEnv(seed int64) (*fabricEnv, error) {
	start := time.Unix(0, 0)
	env := &fabricEnv{
		clock: sim.NewVirtual(start),
		start: start,
		ring:  cluster.NewRing(16),
		nodes: make(map[string]*stream.FabricNode),
		order: []string{"n0", "n1", "n2"},
		down:  make(map[string]bool),
		cut:   make(map[string]bool),
		rng:   rand.New(rand.NewSource(seed ^ 0xfab51c)),
		rep:   &FabricReport{},
		acked: make(map[string][]ackedBatch),
	}
	env.table = cluster.NewLeaseTable(env.clock, fabricTTL)
	for _, id := range env.order {
		env.ring.Join(id, id)
	}
	for _, id := range env.order {
		id := id
		node, err := stream.NewFabricNode(stream.FabricConfig{
			ID:                id,
			Broker:            stream.NewBroker(0),
			Ring:              env.ring,
			Leases:            env.table,
			ReplicationFactor: len(env.order),
			LeaseTTL:          fabricTTL,
			Clock:             env.clock,
			PeerDial: func(to, addr string) (stream.Peer, error) {
				return env.peer(id, to), nil
			},
		})
		if err != nil {
			return nil, err
		}
		env.nodes[id] = node
	}
	return env, nil
}

func (env *fabricEnv) close() {
	for _, id := range env.order {
		env.nodes[id].Broker().Close()
	}
}

// logf stamps a transcript line with the virtual time now.
func (env *fabricEnv) logf(format string, args ...any) {
	env.tr.logf(env.clock.Now().Sub(env.start), format, args...)
}

// leaderOf returns the current valid lease holder of topic ("" if none).
func (env *fabricEnv) leaderOf(topic string) string {
	if l, ok := env.table.Holder(topic); ok && l.Valid(env.clock.Now()) {
		return l.Holder
	}
	return ""
}

// pick chooses the producer's gateway: the preferred node when alive,
// otherwise the first live node in fabric order.
func (env *fabricEnv) pick(preferred string) string {
	if preferred != "" && !env.down[preferred] {
		return preferred
	}
	for _, id := range env.order {
		if !env.down[id] {
			return id
		}
	}
	return ""
}

// failoversTotal sums leader promotions over all nodes.
func (env *fabricEnv) failoversTotal() uint64 {
	var total uint64
	for _, id := range env.order {
		total += env.nodes[id].Failovers()
	}
	return total
}

// batch mints one publish batch of deterministic payloads for topic.
func (env *fabricEnv) batch(topic string) [][]byte {
	payloads := make([][]byte, fabricBatch)
	for i := range payloads {
		env.seq++
		payloads[i] = []byte(fmt.Sprintf("%s#%05d:%08x", topic, env.seq, env.rng.Uint32()))
	}
	return payloads
}

// publish drives one batch through the fabric the way a fabric-mode client
// would: follow not-leader redirects for free, rotate off dead gateways, and
// wait out an expired lease before retrying — at-least-once into the log,
// at-most-once acked here. It records the ack for the final durability audit.
func (env *fabricEnv) publish(ctx context.Context, topic string, payloads [][]byte) bool {
	target := env.leaderOf(topic)
	for attempt := 0; attempt < 64; attempt++ {
		via := env.pick(target)
		if via == "" {
			env.tr.failf("publish-stuck: topic %s has no live nodes", topic)
			return false
		}
		firstID, err := env.nodes[via].PublishBatch(ctx, topic, payloads)
		if err == nil {
			env.acked[topic] = append(env.acked[topic], ackedBatch{firstID: firstID, payloads: payloads})
			env.rep.Acked++
			env.rep.Entries += uint64(len(payloads))
			env.logf("ack topic=%s first=%d n=%d via=%s epoch=%d",
				topic, firstID, len(payloads), via, env.nodes[via].Broker().Epoch(topic))
			return true
		}
		var nl *stream.NotLeaderError
		switch {
		case errors.As(err, &nl):
			env.rep.Redirects++
			if nl.LeaderID != "" && !env.down[nl.LeaderID] && nl.LeaderID != via {
				target = nl.LeaderID // routing, not a fault: retry immediately
				continue
			}
			// Redirect points at a dead leader: wait out its lease so a
			// follower can promote, then retry anywhere live.
			env.logf("retry topic=%s leader %q dead, waiting lease out", topic, nl.LeaderID)
			target = ""
			env.clock.Advance(fabricTTL / 3)
		case errors.Is(err, stream.ErrEpochFenced):
			env.rep.Fenced++
			env.logf("fenced topic=%s via=%s", topic, via)
			target = ""
		case errors.Is(err, stream.ErrNoQuorum):
			env.rep.NoQuorum++
			env.logf("no-quorum topic=%s via=%s", topic, via)
			target = ""
			env.clock.Advance(fabricTTL / 3)
		default:
			env.logf("retry topic=%s via=%s err=%v", topic, via, err)
			target = ""
			env.clock.Advance(fabricTTL / 3)
		}
	}
	env.tr.failf("publish-stuck: topic %s batch never acked", topic)
	return false
}

// kill crashes a node; revive brings it back (its log intact, its lease
// long expired by the time the scenario revives it).
func (env *fabricEnv) kill(id string) {
	env.down[id] = true
	env.logf("kill node=%s", id)
}

func (env *fabricEnv) revive(id string) {
	if env.down[id] {
		delete(env.down, id)
		env.logf("revive node=%s", id)
	}
}

func (env *fabricEnv) reviveAll() {
	for _, id := range env.order {
		env.revive(id)
	}
}

func (env *fabricEnv) sever(a, b string) {
	env.cut[linkKey(a, b)] = true
	env.logf("partition %s", linkKey(a, b))
}

func (env *fabricEnv) heal(a, b string) {
	if env.cut[linkKey(a, b)] {
		delete(env.cut, linkKey(a, b))
		env.logf("heal %s", linkKey(a, b))
	}
}

// firstFollower returns the first live replica of topic that is not its
// leader, in ring order.
func (env *fabricEnv) firstFollower(topic, leader string) string {
	for _, id := range env.ring.Replicas(topic, len(env.order)) {
		if id != leader && !env.down[id] {
			return id
		}
	}
	return ""
}

// replicasAgree compares the logs the listed nodes hold of topic, entry by
// entry and bit for bit, against the first one's; it returns that one's tail.
func replicasAgree(ctx context.Context, nodes map[string]*stream.FabricNode, topic string, ids ...string) (uint64, error) {
	_, tail, _ := nodes[ids[0]].Broker().TopicTail(ctx, topic)
	var want []stream.Entry
	for i, id := range ids {
		got, err := nodes[id].Broker().Range(ctx, topic, 1, tail+1, 0)
		if i == 0 {
			want = got
		}
		if err != nil || len(got) != len(want) {
			return tail, fmt.Errorf("%s holds %d entries of %s (err %v), %s holds %d", id, len(got), topic, err, ids[0], len(want))
		}
		for j, e := range got {
			if e.ID != want[j].ID || string(e.Payload) != string(want[j].Payload) {
				return tail, fmt.Errorf("%s id %d is %q on %s and %q on %s", topic, want[j].ID, e.Payload, id, want[j].Payload, ids[0])
			}
		}
	}
	return tail, nil
}

// auditReplicas checks that every node holds the leader's log of topic.
func (env *fabricEnv) auditReplicas(ctx context.Context, topic, leader string) {
	tail, err := replicasAgree(ctx, env.nodes, topic, append([]string{leader}, env.order...)...)
	if err != nil {
		env.tr.failf("replica-audit: %v", err)
	}
	env.logf("replicas topic=%s agree tail=%d", topic, tail)
}

// statusOf returns the leader-side replication status row for topic.
func (env *fabricEnv) statusOf(topic, leader string) (stream.ReplicaStatus, bool) {
	if leader == "" || env.down[leader] {
		return stream.ReplicaStatus{}, false
	}
	for _, st := range env.nodes[leader].Status() {
		if st.Topic == topic {
			return st, true
		}
	}
	return stream.ReplicaStatus{}, false
}

// RunFabric executes one deterministic replicated-fabric scenario: a
// three-node broker fabric on a virtual clock runs a fixed fault matrix —
// a leader kill with a batch in flight, a leader/follower partition, a
// stale-leader fencing probe, a double failover, a publish cancelled
// mid-replication — followed by a seeded
// GenerateFabric chaos phase, while a producer keeps publishing coalesced
// batches through redirects and retries. The invariants are the tentpole's
// acceptance bar: no acked tuple is ever lost, per-topic acked IDs stay
// monotone, topic epochs never regress, and the transcript is
// byte-reproducible for a fixed seed.
//
// RunFabric returns the report together with a non-nil error when any
// invariant was violated; the report is always valid for inspection.
func RunFabric(seed int64) (*FabricReport, error) {
	env, err := newFabricEnv(seed)
	if err != nil {
		return nil, err
	}
	defer env.close()
	tr, rep := &env.tr, env.rep

	ctx := context.Background()
	topics := make([]string, fabricTopics)
	for i := range topics {
		topics[i] = fmt.Sprintf("fab.t%d", i)
	}
	tr.line("fabric seed=%d nodes=%d topics=%d batch=%d ttl=%s",
		seed, len(env.order), fabricTopics, fabricBatch, fabricTTL)

	// Phase 0 — steady state: establish a leader per topic and a baseline log.
	env.logf("phase steady-state")
	for _, topic := range topics {
		env.publish(ctx, topic, env.batch(topic))
		env.publish(ctx, topic, env.batch(topic))
		env.logf("leader topic=%s holder=%s", topic, env.leaderOf(topic))
	}

	// Phase 1 — leader kill with a batch in flight: the producer's next
	// coalesced batch is already addressed to the leader when it dies, so
	// the ack must come from a promoted follower via retry.
	t0 := topics[0]
	env.logf("phase leader-kill topic=%s", t0)
	before := env.failoversTotal()
	victim := env.leaderOf(t0)
	inFlight := env.batch(t0)
	env.kill(victim)
	env.publish(ctx, t0, inFlight)
	env.publish(ctx, t0, env.batch(t0))
	if got := env.failoversTotal(); got == before {
		tr.failf("failover: killing leader %s of %s promoted nobody", victim, t0)
	}
	env.revive(victim)
	env.publish(ctx, t0, env.batch(t0)) // backfills the revived node

	// Phase 2 — partition between leader and follower: a quorum of 2/3
	// keeps acks flowing, the leader's lag grows, and the first publish
	// after healing backfills the follower.
	t1 := topics[1]
	env.publish(ctx, t1, env.batch(t1))
	leader1 := env.leaderOf(t1)
	follower := env.firstFollower(t1, leader1)
	env.logf("phase partition topic=%s leader=%s follower=%s", t1, leader1, follower)
	env.sever(leader1, follower)
	env.publish(ctx, t1, env.batch(t1))
	env.publish(ctx, t1, env.batch(t1))
	if st, ok := env.statusOf(t1, env.leaderOf(t1)); ok {
		env.logf("lag topic=%s lag=%d epoch=%d", t1, st.Lag, st.Epoch)
		if env.leaderOf(t1) == leader1 && st.Lag == 0 {
			tr.failf("lag: partitioned follower %s shows no lag on %s", follower, t1)
		}
	}
	env.heal(leader1, follower)
	env.publish(ctx, t1, env.batch(t1))
	if st, ok := env.statusOf(t1, env.leaderOf(t1)); ok && st.Lag != 0 {
		tr.failf("lag: %s still lags %d entries after heal and publish", t1, st.Lag)
	}

	// Phase 3 — stale-leader fencing: the coordination service revokes the
	// lease behind the leader's back, another node promotes (raising the
	// local epoch everywhere via its beacon), and the deposed leader's next
	// publish MUST be rejected by the epoch fence — never silently accepted.
	t2 := topics[2]
	env.publish(ctx, t2, env.batch(t2))
	stale := env.leaderOf(t2)
	env.logf("phase fence topic=%s stale=%s", t2, stale)
	env.table.Expire(t2)
	for _, id := range env.order {
		if id != stale && !env.down[id] {
			env.nodes[id].Tick(ctx)
		}
	}
	fencedBatch := env.batch(t2)
	if _, ferr := env.nodes[stale].PublishBatch(ctx, t2, fencedBatch); errors.Is(ferr, stream.ErrEpochFenced) {
		rep.Fenced++
		env.logf("fenced topic=%s stale=%s err=%v", t2, stale, ferr)
	} else {
		tr.failf("fencing: stale leader %s publish on %s returned %v, want epoch fence", stale, t2, ferr)
	}
	env.publish(ctx, t2, fencedBatch) // the producer retries via the new leader

	// Phase 4 — double failover: two leader generations die back to back
	// (with the first victim revived in between to preserve quorum).
	env.logf("phase double-failover topic=%s", t0)
	k1 := env.leaderOf(t0)
	if k1 == "" {
		env.publish(ctx, t0, env.batch(t0))
		k1 = env.leaderOf(t0)
	}
	env.kill(k1)
	env.publish(ctx, t0, env.batch(t0))
	env.revive(k1)
	k2 := env.leaderOf(t0)
	if k2 != "" && k2 != k1 {
		env.kill(k2)
		env.publish(ctx, t0, env.batch(t0))
		env.revive(k2)
	} else {
		tr.failf("failover: no distinct second leader for %s (got %q after killing %q)", t0, k2, k1)
	}
	env.publish(ctx, t0, env.batch(t0))

	// Phase 5 — publish cancelled mid-replication: the producer's context
	// ends when the batch has reached the first follower and not yet the
	// second. Replication does not run on that context, so the batch must be
	// on every replica all the same, and the very next audit proves it.
	env.logf("phase %s topic=%s", sim.PublishCancelled, t1)
	cctx, cancel := context.WithCancel(ctx)
	env.onReplicate = cancel
	env.publish(cctx, t1, env.batch(t1))
	if env.onReplicate != nil || cctx.Err() == nil {
		tr.failf("publish-cancelled: the publish on %s never reached a follower to be cancelled at", t1)
	}
	cancel()
	env.auditReplicas(ctx, t1, env.leaderOf(t1))

	// Phase 6 — seeded chaos: a GenerateFabric schedule drives further
	// kills and partitions while the producer keeps batches flowing.
	rep.Schedule = sim.GenerateFabric(seed, chaosEvents, time.Minute)
	env.logf("phase chaos %s", rep.Schedule)
	chaosStart := env.clock.Now()
	var healAt time.Time
	var healLink [2]string
	for i, e := range rep.Schedule.Events {
		if due := chaosStart.Add(e.At); env.clock.Now().Before(due) {
			env.clock.Advance(due.Sub(env.clock.Now()))
		}
		if !healAt.IsZero() && !env.clock.Now().Before(healAt) {
			env.heal(healLink[0], healLink[1])
			healAt = time.Time{}
		}
		topic := topics[i%len(topics)]
		switch e.Kind {
		case sim.LeaderKill:
			env.reviveAll()
			victim := env.pick(env.leaderOf(topic))
			env.logf("chaos %s topic=%s victim=%s", e.Kind, topic, victim)
			env.kill(victim)
		case sim.Partition:
			// A cut on top of a dead node could leave no reachable quorum;
			// restore full membership before severing.
			env.reviveAll()
			l := env.leaderOf(topic)
			if l == "" || env.down[l] {
				env.logf("chaos %s topic=%s skipped (no live leader)", e.Kind, topic)
				break
			}
			f := env.firstFollower(topic, l)
			if f == "" {
				env.logf("chaos %s topic=%s skipped (no live follower)", e.Kind, topic)
				break
			}
			env.heal(healLink[0], healLink[1]) // one cut at a time
			env.logf("chaos %s topic=%s %s", e.Kind, topic, linkKey(l, f))
			env.sever(l, f)
			healAt = env.clock.Now().Add(e.Duration)
			healLink = [2]string{l, f}
		default:
			// Single-broker kinds have no fabric analogue here; they just
			// let virtual time pass.
			env.logf("chaos %s idle %s", e.Kind, e.Duration)
			env.clock.Advance(e.Duration)
		}
		env.publish(ctx, topic, env.batch(topic))
	}

	// Converge: heal everything, revive everyone, and flush one batch per
	// topic so gap backfill repairs every replica before the audit.
	env.heal(healLink[0], healLink[1])
	env.reviveAll()
	env.clock.Advance(fabricTTL)
	for _, topic := range topics {
		env.publish(ctx, topic, env.batch(topic))
	}

	// Audit — the no-acked-loss invariant: every batch the fabric ever
	// acknowledged must be present, bit-exact, on EVERY live replica, and
	// per-topic acked IDs must be strictly monotone in ack order.
	for _, topic := range topics {
		var last uint64
		for _, b := range env.acked[topic] {
			tr.checkMonotoneID(topic, last, b.firstID)
			last = b.firstID + uint64(len(b.payloads)) - 1
			for _, id := range env.order {
				entries, rerr := env.nodes[id].Broker().Range(ctx, topic, b.firstID, last, 0)
				if rerr != nil {
					tr.failf("acked-loss: %s ids %d..%d unreadable on %s: %v", topic, b.firstID, last, id, rerr)
					continue
				}
				if len(entries) != len(b.payloads) {
					tr.failf("acked-loss: %s ids %d..%d: %s holds %d of %d entries",
						topic, b.firstID, last, id, len(entries), len(b.payloads))
					continue
				}
				for j, e := range entries {
					if string(e.Payload) != string(b.payloads[j]) {
						tr.failf("acked-loss: %s id %d diverged on %s", topic, e.ID, id)
					}
				}
			}
		}
		epoch := env.nodes[env.order[0]].Broker().Epoch(topic)
		if epoch == 0 {
			tr.failf("epoch: topic %s never left epoch 0", topic)
		}
		env.logf("audit topic=%s acked=%d epoch=%d", topic, len(env.acked[topic]), epoch)
	}

	rep.Failovers = env.failoversTotal()
	sort.Strings(tr.violations)
	rep.Result, err = tr.seal(env.clock.Now().Sub(env.start), "acked=%d entries=%d failovers=%d fenced=%d redirects=%d noquorum=%d",
		rep.Acked, rep.Entries, rep.Failovers, rep.Fenced, rep.Redirects, rep.NoQuorum)
	return rep, err
}
