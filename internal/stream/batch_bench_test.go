package stream

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// makeBatch builds n 16-byte payloads (the paper's event size in §4.2.3).
func makeBatch(n int) [][]byte {
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("event-%010d", i))
	}
	return batch
}

// BenchmarkPublishInProc compares tuple-at-a-time against batched publish on
// the in-process broker. Each iteration moves `size` entries, so ns/op
// divided by size is the per-entry cost.
func BenchmarkPublishInProc(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			br := NewBroker(1 << 12)
			defer br.Close()
			ctx := context.Background()
			batch := makeBatch(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if size == 1 {
					if _, err := br.Publish(ctx, "t", batch[0]); err != nil {
						b.Fatal(err)
					}
				} else if _, err := br.PublishBatch(ctx, "t", batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
		})
	}
}

// BenchmarkPublishTCP is the same comparison over the loopback transport,
// where batching also amortizes the frame round-trip.
func BenchmarkPublishTCP(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			br := NewBroker(1 << 12)
			defer br.Close()
			srv, err := Serve(br, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			batch := makeBatch(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if size == 1 {
					if _, err := c.Publish(ctx, "t", batch[0]); err != nil {
						b.Fatal(err)
					}
				} else if _, err := c.PublishBatch(ctx, "t", batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
		})
	}
}

// BenchmarkFabricPublishTCP is the replicated publish path end to end: three
// nodes on loopback, factor 3, one publisher on the leader — every op is a
// local append, one replicate frame to each follower and both answers.
func BenchmarkFabricPublishTCP(b *testing.B) {
	f := startTCPFabric(b, []string{"n1", "n2", "n3"})
	leader := f.nodes["n1"]
	ctx := context.Background()
	batch := makeBatch(1)
	if _, err := leader.PublishBatch(ctx, "t", batch); err != nil { // lease, catch-up, dials
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.PublishBatch(ctx, "t", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// topicMap256 is a broker holding 256 topics of one entry each, and their
// names: the topic-map lookups of the two benchmarks below.
func topicMap256(b *testing.B) (*Broker, []string) {
	br := NewBroker(1 << 12)
	b.Cleanup(br.Close)
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("node%03d.metric", i)
		if _, err := br.Publish(context.Background(), names[i], []byte("event-0000000000")); err != nil {
			b.Fatal(err)
		}
	}
	return br, names
}

// BenchmarkParallelPublish is parallel publishers each cycling over 256
// topics from its own offset: a topic-map lookup and an append per publish.
func BenchmarkParallelPublish(b *testing.B) {
	br, names := topicMap256(b)
	ctx := context.Background()
	payload := []byte("event-0000000000")
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(worker.Add(1)) * 37; pb.Next(); i++ {
			if _, err := br.Publish(ctx, names[i%len(names)], payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelLatest is parallel readers each cycling over 256 topics:
// a topic-map lookup and a one-entry read per call.
func BenchmarkParallelLatest(b *testing.B) {
	br, names := topicMap256(b)
	ctx := context.Background()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(worker.Add(1)) * 37; pb.Next(); i++ {
			if _, err := br.Latest(ctx, names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoalescedPublishTCP drives the group-commit coalescer: async
// publishes stream into the flush loop while the previous batch's acks
// resolve, pipelining the wire round-trips.
func BenchmarkCoalescedPublishTCP(b *testing.B) {
	br := NewBroker(1 << 14)
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithCoalesce(64, 2*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	payload := []byte("event-0000000000")
	const window = 256 // in-flight asyncs before draining
	pending := make([]<-chan PublishResult, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending = append(pending, c.PublishAsync(ctx, "t", payload))
		if len(pending) == window {
			for _, ch := range pending {
				if res := <-ch; res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, ch := range pending {
		if res := <-ch; res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

// BenchmarkConsumeBatch drains a prefilled topic tuple-at-a-time vs in
// 64-entry batches.
func BenchmarkConsumeBatch(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			// A fixed prefill the consumer cycles over; `after` rewinds to
			// the start before it can catch the head and block.
			const prefill = 1 << 16
			br := NewBroker(prefill)
			defer br.Close()
			ctx := context.Background()
			batch := makeBatch(64)
			for have := 0; have < prefill; have += 64 {
				if _, err := br.PublishBatch(ctx, "t", batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var after uint64
			for i := 0; i < b.N; i++ {
				es, err := br.ConsumeBatch(ctx, "t", after, size)
				if err != nil {
					b.Fatal(err)
				}
				after = es[len(es)-1].ID
				if after+uint64(size) >= prefill {
					after = 0
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
		})
	}
}

// BenchmarkBrokerFootprint reports what the broker's storage costs in live
// heap: B/empty-topic for a topic nobody has published to, and per entry of
// a topic filled to DefaultRetention with 28-byte payloads: B/entry for zero
// bytes, B/entry-tuple for telemetry-encoded tuples, B/entry-random for
// incompressible bytes (28 B of each entry is the payload as published); and
// B/entry-partial per entry of a topic holding partialFill Delphi-shaped
// tuples, where the raw newest chunks weigh the most.
func BenchmarkBrokerFootprint(b *testing.B) {
	const topics = 1000
	fills := []struct {
		unit string
		next func(seed int64) func() []byte
		n    int
	}{
		{"B/entry", zeroTuples, DefaultRetention},
		{"B/entry-tuple", tuples, DefaultRetention},
		{"B/entry-random", randomTuples, DefaultRetention},
		{"B/entry-partial", delphiTuples, partialFill},
	}
	sums := make([]uint64, 1+len(fills)) // the empty topics, then each fill
	for i := 0; i < b.N; i++ {
		br := NewBroker(0)
		base := liveHeap()
		emptyTopics(br, topics)
		sums[0] += liveHeap() - base
		for f, fill := range fills {
			next := fill.next(int64(i))
			base = liveHeap()
			fillTopic(b, br, fill.unit, fill.n, next)
			sums[1+f] += liveHeap() - base
		}
		br.Close()
	}
	b.ReportMetric(float64(sums[0])/float64(b.N)/topics, "B/empty-topic")
	for f, fill := range fills {
		b.ReportMetric(float64(sums[1+f])/float64(b.N)/float64(fill.n), fill.unit)
	}
}
