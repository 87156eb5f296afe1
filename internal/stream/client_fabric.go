package stream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// Fabric surface of Client: the seed list and redirect routing of fabric mode
// (WithSeeds), the Peer replication probes, topology and replication-status
// discovery, and the lease ops proxied to the fabric's coordination node. With
// these, *Client satisfies Peer, so a FabricNode replicates to remote nodes
// over the same wire protocol its local tests exercise in-process.

// joinSeeds puts the dialed address on the seed list in fabric mode and
// points seedIdx at it.
func (c *Client) joinSeeds() {
	if !c.opt.fabric() {
		return
	}
	c.seedIdx = -1
	for i, s := range c.opt.seeds {
		if s == c.addr {
			c.seedIdx = i
			break
		}
	}
	if c.seedIdx < 0 {
		c.opt.seeds = append([]string{c.addr}, c.opt.seeds...)
		c.seedIdx = 0
	}
}

// retireLocked takes the current connection out of service without failing
// the requests in flight on it (they may belong to other callers): they read
// their answers, and the last one out closes it.
func (c *Client) retireLocked() {
	w := c.wire
	if w == nil {
		return
	}
	c.wire = nil
	if w.sent == w.recvd {
		w.conn.Close()
		return
	}
	if c.retired == nil {
		c.retired = make(map[*wire]struct{})
	}
	c.retired[w] = struct{}{}
}

// redirectTo switches the client to a leader address learned from a
// not-leader redirect, retiring the current connection so the next
// round-trip dials the leader.
func (c *Client) redirectTo(addr string) {
	c.obsRedirects.Inc()
	c.mu.Lock()
	if addr != c.addr {
		c.addr = addr
		c.retireLocked()
	}
	c.mu.Unlock()
}

// rotate advances to the next seed address (fabric mode) after a retryable
// fault: the current address may be the dead leader.
func (c *Client) rotate() {
	c.mu.Lock()
	if len(c.opt.seeds) > 1 {
		c.seedIdx = (c.seedIdx + 1) % len(c.opt.seeds)
		if c.opt.seeds[c.seedIdx] == c.addr {
			c.seedIdx = (c.seedIdx + 1) % len(c.opt.seeds)
		}
		c.addr = c.opt.seeds[c.seedIdx]
		c.retireLocked()
	}
	c.mu.Unlock()
}

// Replicate puts a leader's append stream for the remote replica on the wire
// under an epoch; the returned wait reads the answer, the replica's
// resulting tail ID. The exchange runs on the client's own I/O timeout, on no
// caller's context, and is not retried: a follower that missed an append
// reports the gap on the next one and is backfilled then.
func (c *Client) Replicate(topic string, epoch uint64, entries []Entry) (wait func() (uint64, error)) {
	req := getEnc()
	req.str(topic).u64(epoch)
	encodeEntries(req, entries)
	t, err := c.send(context.Background(), opReplicate, req.b)
	putEnc(req)
	if err != nil {
		return func() (uint64, error) { return 0, err }
	}
	return func() (uint64, error) {
		var code byte
		var tail uint64
		err := c.await(context.Background(), t, func(d *buf) {
			code = d.u8()
			tail = d.u64()
		})
		if err != nil {
			return 0, err
		}
		switch code {
		case replFenced:
			return tail, fmt.Errorf("replicate %q: %w", topic, ErrEpochFenced)
		case replGap:
			return tail, fmt.Errorf("replicate %q: %w", topic, ErrReplicaGap)
		}
		return tail, nil
	}
}

// TopicTail returns the remote replica's (epoch, lastID) for topic; (0, 0)
// when the topic does not exist there yet.
func (c *Client) TopicTail(ctx context.Context, topic string) (epoch, lastID uint64, err error) {
	req := getEnc()
	defer putEnc(req)
	req.str(topic)
	err = c.call(ctx, opTopicTail, req.b, true, func(d *buf) {
		epoch = d.u64()
		lastID = d.u64()
	})
	return epoch, lastID, err
}

// Topology lists the fabric membership as known by the contacted node.
func (c *Client) Topology(ctx context.Context) ([]NodeInfo, error) {
	var out []NodeInfo
	err := c.call(ctx, opTopology, nil, true, func(d *buf) {
		n := int(d.u32())
		out = make([]NodeInfo, 0, n)
		for i := 0; i < n; i++ {
			id, addr := d.str(), d.str()
			out = append(out, NodeInfo{ID: id, Addr: addr})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReplicationStatus reports the contacted node's per-topic replication view.
func (c *Client) ReplicationStatus(ctx context.Context) ([]ReplicaStatus, error) {
	var out []ReplicaStatus
	err := c.call(ctx, opReplStatus, nil, true, func(d *buf) {
		n := int(d.u32())
		out = make([]ReplicaStatus, 0, n)
		for i := 0; i < n; i++ {
			st := ReplicaStatus{Topic: d.str(), Epoch: d.u64(), Leader: d.str()}
			st.IsLeader = d.u8() == 1
			st.Lag = d.u64()
			out = append(out, st)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LeaseHolder queries the fabric coordination node for topic's lease.
func (c *Client) LeaseHolder(ctx context.Context, topic string) (cluster.Lease, bool, error) {
	req := getEnc()
	defer putEnc(req)
	req.str(topic)
	return c.leaseCall(ctx, opLeaseHolder, req.b)
}

// LeaseAcquire asks the coordination node to grant node the topic's lease.
func (c *Client) LeaseAcquire(ctx context.Context, topic, node string) (cluster.Lease, bool, error) {
	req := getEnc()
	defer putEnc(req)
	req.str(topic).str(node)
	return c.leaseCall(ctx, opLeaseAcquire, req.b)
}

// LeaseRenew extends node's standing lease at the given epoch.
func (c *Client) LeaseRenew(ctx context.Context, topic, node string, epoch uint64) (cluster.Lease, bool, error) {
	req := getEnc()
	defer putEnc(req)
	req.str(topic).str(node).u64(epoch)
	return c.leaseCall(ctx, opLeaseRenew, req.b)
}

func (c *Client) leaseCall(ctx context.Context, op byte, payload []byte) (cluster.Lease, bool, error) {
	var l cluster.Lease
	var ok bool
	err := c.call(ctx, op, payload, true, func(d *buf) {
		ok = d.u8() == 1
		l = decodeLease(d)
	})
	if err != nil {
		return cluster.Lease{}, false, err
	}
	return l, ok, nil
}

// RemoteLeases adapts the coordinator node's lease wire ops to
// cluster.LeaseService, so every process of a multi-node fabric shares one
// lease table (held by the coordinator — by convention the lowest node ID).
// An unreachable coordinator fails safe: no grant, no renewal — the caller
// simply cannot claim or keep leadership while cut off.
type RemoteLeases struct {
	c       *Client
	timeout time.Duration
}

// NewRemoteLeases wraps a client connected to the coordinator node.
func NewRemoteLeases(c *Client) *RemoteLeases {
	return &RemoteLeases{c: c, timeout: 2 * time.Second}
}

// Acquire implements cluster.LeaseService.
func (r *RemoteLeases) Acquire(topic, node string) (cluster.Lease, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	l, ok, err := r.c.LeaseAcquire(ctx, topic, node)
	if err != nil {
		return cluster.Lease{}, false
	}
	return l, ok
}

// Renew implements cluster.LeaseService.
func (r *RemoteLeases) Renew(topic, node string, epoch uint64) (cluster.Lease, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	l, ok, err := r.c.LeaseRenew(ctx, topic, node, epoch)
	if err != nil {
		return cluster.Lease{}, false
	}
	return l, ok
}

// Holder implements cluster.LeaseService.
func (r *RemoteLeases) Holder(topic string) (cluster.Lease, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	l, ok, err := r.c.LeaseHolder(ctx, topic)
	if err != nil {
		return cluster.Lease{}, false
	}
	return l, ok
}

var (
	_ Peer                 = (*Client)(nil)
	_ cluster.LeaseService = (*RemoteLeases)(nil)
)
