package stream

import (
	"context"
	"time"
)

// PublishResult resolves one PublishAsync call: the assigned entry ID, or
// the error that failed its batch.
type PublishResult struct {
	ID  uint64
	Err error
}

// pendingPub is one queued tuple awaiting a group-commit flush.
type pendingPub struct {
	topic   string
	payload []byte
	queued  time.Time
	done    chan PublishResult
}

// PublishAsync queues payload for a group-commit flush and returns a
// 1-buffered channel that resolves with the assigned ID (or error) once its
// batch lands. Tuples are coalesced into PublishBatch frames of up to the
// WithCoalesce batch size, flushed at the latest after its delay —
// amortizing the per-frame round-trip across the batch while bounding added
// latency. The payload is copied, so the caller may reuse its buffer.
// Queue-order is flush-order, so one topic's tuples keep their relative
// order.
func (c *Client) PublishAsync(ctx context.Context, topic string, payload []byte) <-chan PublishResult {
	done := make(chan PublishResult, 1)
	if len(payload) == 0 {
		done <- PublishResult{Err: ErrEmptyPayload}
		return done
	}
	p := pendingPub{topic: topic, payload: append([]byte(nil), payload...), queued: c.opt.clock.Now(), done: done}

	c.coMu.Lock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.coMu.Unlock()
		done <- PublishResult{Err: ErrClientClosed}
		return done
	}
	if c.coCh == nil {
		c.coCh = make(chan pendingPub, 4*c.opt.coalesceBatch)
		c.coDone = make(chan struct{})
		c.coExited = make(chan struct{})
		go c.coalesceLoop(c.coCh, c.coDone, c.coExited)
	}
	ch, stop := c.coCh, c.coDone
	c.coMu.Unlock()
	if stop == nil { // Close already ran
		done <- PublishResult{Err: ErrClientClosed}
		return done
	}

	select {
	case ch <- p:
	case <-stop:
		done <- PublishResult{Err: ErrClientClosed}
	case <-ctx.Done():
		done <- PublishResult{Err: ctx.Err()}
	}
	return done
}

// coalesceLoop is the bounded flush loop behind PublishAsync: it accumulates
// tuples and flushes when the batch is full or the oldest tuple has waited
// the coalesce delay.
func (c *Client) coalesceLoop(in <-chan pendingPub, stop <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	var pending []pendingPub
	timer := c.opt.clock.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func() {
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
		c.flushPending(pending)
		pending = pending[:0]
	}
	for {
		select {
		case p := <-in:
			pending = append(pending, p)
			if len(pending) == 1 {
				timer.Reset(c.opt.coalesceDelay)
				armed = true
			}
			if len(pending) >= c.opt.coalesceBatch {
				flush()
			}
		case <-timer.C:
			armed = false
			c.flushPending(pending)
			pending = pending[:0]
		case <-stop:
			// Resolve everything still queued: the connection is gone.
			for {
				select {
				case p := <-in:
					pending = append(pending, p)
					continue
				default:
				}
				break
			}
			for _, p := range pending {
				p.done <- PublishResult{Err: ErrClientClosed}
			}
			return
		}
	}
}

// flushPending group-commits queued tuples: consecutive same-topic runs
// become one PublishBatch each, and every tuple resolves with its assigned
// ID (first + offset, IDs being contiguous per batch) or the batch error.
// A run's instruments are recorded before its tuples resolve, so a caller
// that has its result also sees the flush in the registry.
func (c *Client) flushPending(pending []pendingPub) {
	for start := 0; start < len(pending); {
		end := start + 1
		for end < len(pending) && pending[end].topic == pending[start].topic {
			end++
		}
		run := pending[start:end]
		payloads := make([][]byte, len(run))
		for i, p := range run {
			payloads[i] = p.payload
		}
		first, err := c.PublishBatch(context.Background(), run[0].topic, payloads)
		now := c.opt.clock.Now()
		c.obsBatchSize.Observe(float64(len(run)))
		for i, p := range run {
			c.obsCoalesce.ObserveDuration(now.Sub(p.queued))
			if err != nil {
				p.done <- PublishResult{Err: err}
			} else {
				p.done <- PublishResult{ID: first + uint64(i)}
			}
		}
		start = end
	}
}
