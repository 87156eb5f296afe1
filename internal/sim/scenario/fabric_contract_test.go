package scenario

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stream"
)

// contractFabric is a three-node fabric whose nodes reach each other through
// one kind of stream.Peer; kill makes a node dead to its peers in whatever way
// that kind of peer can observe.
type contractFabric struct {
	ring  *cluster.Ring
	table *cluster.LeaseTable
	nodes map[string]*stream.FabricNode
	// peer resolves the Peer node from reaches node to through (the nodes'
	// PeerDial).
	peer func(from, to string) (stream.Peer, error)
	kill func(id string)
}

// newPlainFabric builds the fabric for the two peer kinds that need no
// scenario environment: the node itself (tcp false) and a *stream.Client to
// the node's server on loopback.
func newPlainFabric(t *testing.T, tcp bool) *contractFabric {
	clock := sim.Wall{}
	f := &contractFabric{
		ring:  cluster.NewRing(16),
		table: cluster.NewLeaseTable(clock, time.Minute),
		nodes: make(map[string]*stream.FabricNode),
	}
	ids := []string{"n0", "n1", "n2"}
	brokers := make(map[string]*stream.Broker)
	servers := make(map[string]*stream.Server)
	for _, id := range ids {
		brokers[id] = stream.NewBroker(0)
		addr := id
		if tcp {
			srv, err := stream.Serve(brokers[id], "127.0.0.1:0")
			if err != nil {
				t.Fatalf("serve %s: %v", id, err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[id], addr = srv, srv.Addr()
		}
		f.ring.Join(id, addr)
	}
	if tcp {
		f.peer = func(from, to string) (stream.Peer, error) {
			addr, _ := f.ring.Addr(to)
			c, err := stream.Dial(addr)
			if err == nil {
				t.Cleanup(func() { c.Close() })
			}
			return c, err
		}
		f.kill = func(id string) { servers[id].Close() }
	} else {
		f.peer = func(from, to string) (stream.Peer, error) { return f.nodes[to], nil }
		// A dead in-process node is one whose broker answers nothing.
		f.kill = func(id string) { brokers[id].Close() }
	}
	for _, id := range ids {
		id := id
		n, err := stream.NewFabricNode(stream.FabricConfig{
			ID: id, Broker: brokers[id], Ring: f.ring, Leases: f.table,
			ReplicationFactor: len(ids), LeaseTTL: time.Minute, Clock: clock,
			PeerDial: func(to, _ string) (stream.Peer, error) { return f.peer(id, to) },
		})
		if err != nil {
			t.Fatalf("fabric node %s: %v", id, err)
		}
		f.nodes[id] = n
		if tcp {
			servers[id].SetFabric(n)
		}
	}
	return f
}

// newGatedFabric is the scenario's own fabric: gatedPeer links on a virtual
// clock.
func newGatedFabric(t *testing.T) *contractFabric {
	env, err := newFabricEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.close)
	return &contractFabric{
		ring: env.ring, table: env.table, nodes: env.nodes, kill: env.kill,
		peer: func(from, to string) (stream.Peer, error) { return env.peer(from, to), nil },
	}
}

// TestReplicationContract runs one sequence of publishes — acked everywhere,
// a gap backfilled, a deposed leader fenced, one follower dead, both dead —
// over every kind of Peer a fabric node replicates through: the two-phase
// Replicate must mean the same thing whether the first phase applies the
// append (in-process) or only puts it on a wire.
func TestReplicationContract(t *testing.T) {
	kinds := map[string]func(*testing.T) *contractFabric{
		"FabricNode": func(t *testing.T) *contractFabric { return newPlainFabric(t, false) },
		"gatedPeer":  newGatedFabric,
		"Client":     func(t *testing.T) *contractFabric { return newPlainFabric(t, true) },
	}
	for kind, build := range kinds {
		t.Run(kind, func(t *testing.T) {
			f := build(t)
			ctx := context.Background()
			const topic = "contract.topic"
			reps := f.ring.Replicas(topic, 3)
			leader, next := f.nodes[reps[0]], f.nodes[reps[1]]
			publish := func(n *stream.FabricNode, payload string) (uint64, error) {
				return n.PublishBatch(ctx, topic, [][]byte{[]byte(payload)})
			}
			// agree fails unless every listed replica holds the same log, bit
			// for bit, up to tail.
			agree := func(step string, tail uint64, ids ...string) {
				t.Helper()
				if got, err := replicasAgree(ctx, f.nodes, topic, ids...); err != nil || got != tail {
					t.Fatalf("%s: replicas %v: tail %d, want %d; %v", step, ids, got, tail, err)
				}
			}

			// ok: acked means on every replica.
			if id, err := publish(leader, "a"); err != nil || id != 1 {
				t.Fatalf("ok: id %d err %v, want 1 <nil>", id, err)
			}
			agree("ok", 1, reps...)

			// gap -> backfill: two entries only the leader holds (appended
			// past the fabric), then a publish; each follower reports its tail
			// and is backfilled from it within that publish.
			if _, err := leader.Broker().PublishBatch(ctx, topic, [][]byte{[]byte("b"), []byte("c")}); err != nil {
				t.Fatal(err)
			}
			if id, err := publish(leader, "d"); err != nil || id != 4 {
				t.Fatalf("gap: id %d err %v, want 4 <nil>", id, err)
			}
			agree("gap", 4, reps...)
			if st := leader.Status(); len(st) != 1 || !st[0].IsLeader || st[0].Lag != 0 {
				t.Fatalf("gap: leader status %+v, want no lag after the backfill", st)
			}

			// fenced: the lease is revoked behind the leader's back and the
			// next replica promotes itself. An append under the old epoch is
			// refused by a follower, which reports its tail; the deposed
			// leader's publish is rejected, and having dropped its cached
			// lease it then redirects to the new leader.
			f.table.Expire(topic)
			next.Tick(ctx)
			if got := f.nodes[reps[2]].Broker().Epoch(topic); got != 2 {
				t.Fatalf("fenced: epoch on %s = %d after the promotion's beacon, want 2", reps[2], got)
			}
			p, err := f.peer(reps[0], reps[2])
			if err != nil {
				t.Fatal(err)
			}
			if tail, err := p.Replicate(topic, 1, []stream.Entry{{ID: 5, Payload: []byte("stale")}})(); !errors.Is(err, stream.ErrEpochFenced) || tail != 4 {
				t.Fatalf("fenced: append under epoch 1: tail %d err %v, want 4 and ErrEpochFenced", tail, err)
			}
			if _, err := publish(leader, "stale"); !errors.Is(err, stream.ErrEpochFenced) {
				t.Fatalf("fenced: deposed leader's publish: %v, want ErrEpochFenced", err)
			}
			agree("fenced", 4, reps...)
			var nl *stream.NotLeaderError
			if _, err := publish(leader, "again"); !errors.As(err, &nl) || nl.LeaderID != next.ID() {
				t.Fatalf("fenced: second publish: %v, want a redirect to %s", err, next.ID())
			}
			if id, err := publish(next, "e"); err != nil || id != 5 {
				t.Fatalf("fenced: new leader's publish: id %d err %v, want 5 <nil>", id, err)
			}
			agree("fenced", 5, reps...)

			// one follower dead: the other's ack still makes the quorum.
			f.kill(reps[2])
			if id, err := publish(next, "f"); err != nil || id != 6 {
				t.Fatalf("one dead: id %d err %v, want 6 <nil>", id, err)
			}
			agree("one dead", 6, reps[1], reps[0])

			// both dead: the append stays local and is not acked.
			f.kill(reps[0])
			if _, err := publish(next, "g"); !errors.Is(err, stream.ErrNoQuorum) {
				t.Fatalf("both dead: %v, want ErrNoQuorum", err)
			}
		})
	}
}
