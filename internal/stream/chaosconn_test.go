package stream

import (
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// ChaosConfig parameterizes deterministic fault injection on the wire path.
// All probabilities are in [0, 1] and evaluated per operation (per Dial, per
// Read, per Write) from one seeded source, so a given seed replays the same
// fault schedule — the transport-layer analogue of the fault hooks
// internal/cluster already exposes for nodes (SetOnline) and devices
// (InjectBadBlocks).
type ChaosConfig struct {
	// Seed feeds the fault schedule (same seed, same single-goroutine op
	// sequence => same faults).
	Seed int64
	// RefuseProb makes Dial fail with ECONNREFUSED.
	RefuseProb float64
	// ResetProb makes a Read or Write fail with ECONNRESET and kills the
	// underlying connection (mid-stream reset).
	ResetProb float64
	// DelayProb injects a latency spike of Delay before a Read or Write.
	DelayProb float64
	// Delay is the injected latency (default 2ms).
	Delay time.Duration
	// Clock sleeps the injected Delay (default: the wall clock). Inject a
	// virtual clock so latency spikes elapse on simulated time.
	Clock sim.Clock
	// CorruptProb flips one byte of the data returned by a Read.
	CorruptProb float64
	// PartialWriteProb writes only a prefix of the buffer, then resets the
	// connection, leaving the peer mid-frame.
	PartialWriteProb float64
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Dials, Refused, Resets, Delays, Corrupted, Partials uint64
}

// Chaos injects faults into connections it dials (client side, as the
// options' dialer) or wraps (server side, as the Server's wrap). Safe for
// concurrent use; with concurrent connections the schedule is deterministic
// per seed only up to goroutine interleaving.
type Chaos struct {
	cfg ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats ChaosStats
}

// NewChaos builds a fault injector.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.Delay <= 0 {
		cfg.Delay = 2 * time.Millisecond
	}
	cfg.Clock = sim.Or(cfg.Clock)
	return &Chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// roll draws one fault decision from the seeded schedule.
func (c *Chaos) roll(p float64, hit *uint64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= p {
		return false
	}
	*hit++
	return true
}

// Dial is a client dialer: it may refuse the connection outright, and wraps
// accepted ones in the fault-injecting net.Conn.
func (c *Chaos) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c.mu.Lock()
	c.stats.Dials++
	c.mu.Unlock()
	if c.roll(c.cfg.RefuseProb, &c.stats.Refused) {
		return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
	}
	conn, err := (&net.Dialer{Timeout: timeout}).Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return c.Wrap(conn), nil
}

// Wrap decorates an established connection (e.g. one accepted by a Server)
// with the fault injector.
func (c *Chaos) Wrap(conn net.Conn) net.Conn { return &chaosConn{Conn: conn, chaos: c} }

// withChaos routes a client's dials through chaos.
func withChaos(chaos *Chaos) Option { return func(o *options) { o.dialer = chaos.Dial } }

// chaosConn injects faults on the Read/Write path of one connection.
type chaosConn struct {
	net.Conn
	chaos *Chaos
}

func (c *chaosConn) reset() error {
	c.Conn.Close()
	return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
}

func (c *chaosConn) Read(p []byte) (int, error) {
	ch := c.chaos
	if ch.roll(ch.cfg.DelayProb, &ch.stats.Delays) {
		ch.cfg.Clock.Sleep(ch.cfg.Delay)
	}
	if ch.roll(ch.cfg.ResetProb, &ch.stats.Resets) {
		return 0, c.reset()
	}
	n, err := c.Conn.Read(p)
	if n > 0 && ch.roll(ch.cfg.CorruptProb, &ch.stats.Corrupted) {
		ch.mu.Lock()
		i := ch.rng.Intn(n)
		ch.mu.Unlock()
		p[i] ^= 0xFF
	}
	return n, err
}

func (c *chaosConn) Write(p []byte) (int, error) {
	ch := c.chaos
	if ch.roll(ch.cfg.DelayProb, &ch.stats.Delays) {
		ch.cfg.Clock.Sleep(ch.cfg.Delay)
	}
	if ch.roll(ch.cfg.ResetProb, &ch.stats.Resets) {
		return 0, c.reset()
	}
	if len(p) > 1 && ch.roll(ch.cfg.PartialWriteProb, &ch.stats.Partials) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	}
	return c.Conn.Write(p)
}
