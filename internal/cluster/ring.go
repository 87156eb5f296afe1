package cluster

import (
	"sort"
	"sync"
)

// DefaultVnodes is how many virtual nodes each member contributes to the
// ring when not configured. More vnodes smooth topic placement across a
// small broker set at the cost of a larger sorted table.
const DefaultVnodes = 64

// vnode is one virtual point on the hash ring.
type vnode struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring placing stream topics on broker fabric
// nodes. Every node contributes vnodes virtual points; a topic is owned by
// the first vnode clockwise from the topic's hash, and its replica set is
// the owner plus the next distinct nodes around the ring. All fabric nodes
// built from the same member list compute identical placement, so no
// placement state needs to be exchanged.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []vnode           // sorted by hash
	addrs  map[string]string // node id -> advertised address
}

// NewRing returns an empty ring with vnodes virtual points per member
// (<= 0: DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, addrs: make(map[string]string)}
}

// fnv64 hashes s with FNV-1a and scatters the result through a
// splitmix64-style finalizer: raw FNV barely avalanches on short keys that
// differ in one trailing character, which would leave all of a node's
// vnodes adjacent on the ring (and some members owning nothing).
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Join adds (or re-addresses) a member. Joining an existing id only updates
// its address.
func (r *Ring) Join(id, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.addrs[id]; ok {
		r.addrs[id] = addr
		return
	}
	r.addrs[id] = addr
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, vnode{hash: fnv64(id + "#" + itoa(i)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// itoa is a tiny strconv.Itoa for non-negative vnode indices, avoiding the
// import for this one hot-at-startup loop.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Members returns the sorted member ids.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.addrs))
	for id := range r.addrs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Addr returns a member's advertised address.
func (r *Ring) Addr(id string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.addrs[id]
	return a, ok
}

// Owner returns the node owning (preferred leader for) topic.
func (r *Ring) Owner(topic string) (string, bool) {
	reps := r.Replicas(topic, 1)
	if len(reps) == 0 {
		return "", false
	}
	return reps[0], true
}

// Replicas returns up to n distinct nodes for topic in ring order: the
// owner first, then its successors. Fewer than n members returns them all.
func (r *Ring) Replicas(topic string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.addrs) {
		n = len(r.addrs)
	}
	h := fnv64(topic)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}
