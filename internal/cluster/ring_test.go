package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRingPlacementDeterministic(t *testing.T) {
	build := func() *Ring {
		r := NewRing(32)
		r.Join("b", "host-b:1")
		r.Join("a", "host-a:1")
		r.Join("c", "host-c:1")
		return r
	}
	r1, r2 := build(), build()
	topics := []string{"comp00.nvme0.capacity", "cluster.capacity", "fab.alpha", "fab.beta", "x"}
	for _, topic := range topics {
		a := r1.Replicas(topic, 3)
		b := r2.Replicas(topic, 3)
		if len(a) != 3 || len(b) != 3 {
			t.Fatalf("replicas(%q): got %v / %v, want 3 distinct nodes", topic, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("placement diverged for %q: %v vs %v", topic, a, b)
			}
		}
		seen := map[string]bool{}
		for _, id := range a {
			if seen[id] {
				t.Fatalf("replicas(%q) repeated node: %v", topic, a)
			}
			seen[id] = true
		}
		owner, ok := r1.Owner(topic)
		if !ok || owner != a[0] {
			t.Fatalf("owner(%q) = %q, want first replica %q", topic, owner, a[0])
		}
	}
}

func TestRingSpreadsTopics(t *testing.T) {
	r := NewRing(0)
	r.Join("a", "")
	r.Join("b", "")
	r.Join("c", "")
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		owner, _ := r.Owner("topic-" + itoa(i))
		counts[owner]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] == 0 {
			t.Fatalf("node %s owns no topics: %v", id, counts)
		}
	}
}

func TestRingJoin(t *testing.T) {
	r := NewRing(16)
	r.Join("a", "addr-a")
	r.Join("b", "addr-b")
	if got := r.Replicas("t", 5); len(got) != 2 {
		t.Fatalf("replicas capped at member count: got %v", got)
	}
	if addr, ok := r.Addr("a"); !ok || addr != "addr-a" {
		t.Fatalf("Addr(a) = %q, %v", addr, ok)
	}
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members = %v, want [a b]", got)
	}
}

func TestLeaseAcquireRenewFence(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	tbl := NewLeaseTable(clock, 3*time.Second)

	l1, ok := tbl.Acquire("t", "a")
	if !ok || l1.Epoch != 1 || l1.Holder != "a" {
		t.Fatalf("first acquire: %+v, %v", l1, ok)
	}
	// A competing node cannot steal a valid lease.
	held, ok := tbl.Acquire("t", "b")
	if ok || held.Holder != "a" {
		t.Fatalf("steal succeeded: %+v, %v", held, ok)
	}
	// The holder renews without an epoch bump.
	l2, ok := tbl.Renew("t", "a", l1.Epoch)
	if !ok || l2.Epoch != 1 {
		t.Fatalf("renew: %+v, %v", l2, ok)
	}
	// Re-acquire by the holder extends, same epoch.
	l3, ok := tbl.Acquire("t", "a")
	if !ok || l3.Epoch != 1 {
		t.Fatalf("re-acquire by holder bumped epoch: %+v", l3)
	}

	// After expiry a new holder gets a bumped epoch...
	clock.Advance(4 * time.Second)
	l4, ok := tbl.Acquire("t", "b")
	if !ok || l4.Epoch != 2 || l4.Holder != "b" {
		t.Fatalf("post-expiry acquire: %+v, %v", l4, ok)
	}
	// ...and the deposed holder's stale renew is refused.
	if cur, ok := tbl.Renew("t", "a", l1.Epoch); ok {
		t.Fatalf("stale renew accepted: %+v", cur)
	}

	// Force-expiry lets the next acquirer in immediately, with a fresh epoch.
	tbl.Expire("t")
	l5, ok := tbl.Acquire("t", "a")
	if !ok || l5.Epoch != 3 {
		t.Fatalf("post-Expire acquire: %+v, %v", l5, ok)
	}
}

func TestLeaseHolderSurfacesExpired(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	tbl := NewLeaseTable(clock, time.Second)
	if _, ok := tbl.Holder("t"); ok {
		t.Fatal("holder before any grant")
	}
	tbl.Acquire("t", "a")
	clock.Advance(2 * time.Second)
	l, ok := tbl.Holder("t")
	if !ok || l.Valid(clock.Now()) {
		t.Fatalf("expired lease should be visible but invalid: %+v, %v", l, ok)
	}
}
