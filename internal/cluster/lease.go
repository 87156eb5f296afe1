package cluster

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// DefaultLeaseTTL is how long a leader lease lasts when not configured.
const DefaultLeaseTTL = 3 * time.Second

// Lease is a per-topic leadership grant. Epoch is the fencing token: it
// increases by exactly one on every change of holder (or re-grant after
// expiry), and replicas reject append streams carrying an older epoch, so a
// deposed leader's publishes can never be silently accepted.
type Lease struct {
	Topic   string
	Holder  string
	Epoch   uint64
	Expires time.Time
}

// Valid reports whether the lease is held at time now.
func (l Lease) Valid(now time.Time) bool {
	return l.Holder != "" && now.Before(l.Expires)
}

// LeaseService is the coordination surface the broker fabric leans on: a
// logically-centralized lease table standing in for an external coordination
// service (etcd, ZooKeeper, Chubby). LeaseTable implements it in-process;
// stream.RemoteLeases proxies it over the wire to the fabric's coordinator
// node.
type LeaseService interface {
	// Acquire grants (or extends, for the current holder) the topic lease to
	// node, bumping the epoch when holdership changes. It reports false —
	// returning the standing lease — when another node validly holds it.
	Acquire(topic, node string) (Lease, bool)
	// Renew extends the lease iff node still holds it at the given epoch.
	Renew(topic, node string, epoch uint64) (Lease, bool)
	// Holder returns the current lease record (possibly expired) and whether
	// one exists.
	Holder(topic string) (Lease, bool)
}

// LeaseTable is the in-process LeaseService: a clock-driven lease state
// machine. All expiry decisions use the table's clock, so a fabric running
// on a shared sim.Virtual is fully deterministic.
type LeaseTable struct {
	mu     sync.Mutex
	clock  sim.Clock
	ttl    time.Duration
	leases map[string]Lease
}

// NewLeaseTable builds a lease table granting leases of ttl (<= 0:
// DefaultLeaseTTL) on clock (nil: wall).
func NewLeaseTable(clock sim.Clock, ttl time.Duration) *LeaseTable {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &LeaseTable{clock: sim.Or(clock), ttl: ttl, leases: make(map[string]Lease)}
}

// Acquire implements LeaseService. A new grant after expiry (or the first
// grant) bumps the epoch; the standing holder re-acquiring just extends.
func (t *LeaseTable) Acquire(topic, node string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	cur, ok := t.leases[topic]
	if ok && cur.Valid(now) && cur.Holder != node {
		return cur, false
	}
	epoch := cur.Epoch
	if !ok || cur.Holder != node || !cur.Valid(now) {
		epoch++
	}
	l := Lease{Topic: topic, Holder: node, Epoch: epoch, Expires: now.Add(t.ttl)}
	t.leases[topic] = l
	return l, true
}

// Renew implements LeaseService: it extends the lease only for the standing
// holder at the matching epoch — a deposed leader renewing with a stale
// epoch is refused and must re-Acquire (observing the new epoch).
func (t *LeaseTable) Renew(topic, node string, epoch uint64) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	cur, ok := t.leases[topic]
	if !ok || cur.Holder != node || cur.Epoch != epoch || !cur.Valid(now) {
		return cur, false
	}
	cur.Expires = now.Add(t.ttl)
	t.leases[topic] = cur
	return cur, true
}

// Holder implements LeaseService.
func (t *LeaseTable) Holder(topic string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[topic]
	return l, ok
}

// Expire force-expires a topic's lease (fault injection: models the
// coordination service revoking a lease the holder still believes in, e.g.
// after clock skew or a missed renewal).
func (t *LeaseTable) Expire(topic string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.leases[topic]; ok {
		l.Expires = t.clock.Now().Add(-time.Nanosecond)
		t.leases[topic] = l
	}
}

// Topics returns every topic with a lease record, unsorted.
func (t *LeaseTable) Topics() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.leases))
	for topic := range t.leases {
		out = append(out, topic)
	}
	return out
}
