// Batch: the batched, context-aware publish hot path. A producer pushes
// telemetry through the group-commit coalescer (Client.PublishAsync), the
// broker appends whole batches under one topic lock, and a consumer drains
// with a Follow cursor whose every Next hands back a run of entries — the
// same Bus interface serving both the in-process Broker and the TCP Client.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/stream"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Topic lookups take no lock, so concurrent producers on different
	// topics contend only on their own topic.
	broker := stream.NewBroker(1 << 12)
	defer broker.Close()
	srv, err := stream.Serve(broker, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Both ends of the fabric satisfy the same Bus interface.
	var _ stream.Bus = broker
	client, err := stream.Dial(srv.Addr(),
		// Flush a coalesced batch at 32 tuples or 1ms, whichever first.
		stream.WithCoalesce(32, time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	var _ stream.Bus = client

	// Producer: fire-and-collect. Each PublishAsync returns immediately;
	// the coalescer groups consecutive same-topic tuples into one
	// PublishBatch frame, so 256 tuples cross the wire in ~8 round trips.
	const n = 256
	results := make([]<-chan stream.PublishResult, n)
	payload := []byte("16-byte-payload!")
	for i := range results {
		results[i] = client.PublishAsync(ctx, "telemetry.batch", payload)
	}
	var firstID, lastID uint64
	for i, ch := range results {
		r := <-ch
		if r.Err != nil {
			log.Fatalf("publish %d: %v", i, r.Err)
		}
		if i == 0 {
			firstID = r.ID
		}
		lastID = r.ID
	}
	fmt.Printf("published %d tuples, IDs %d..%d\n", n, firstID, lastID)

	// Consumer: a cursor drains in runs instead of tuple-at-a-time; it
	// holds its own position, on a connection of its own.
	cur, err := client.Follow(ctx, "telemetry.batch", 0)
	if err != nil {
		log.Fatal(err)
	}
	for got := 0; got < n; {
		entries, err := cur.Next()
		if err != nil {
			log.Fatal(err)
		}
		got += len(entries)
		fmt.Printf("consumed run of %d (total %d)\n", len(entries), got)
	}

	// Explicit batches work too — one call, one frame, one broker lock.
	ids := make([][]byte, 8)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("tuple-%d", i))
	}
	first, err := client.PublishBatch(ctx, "telemetry.explicit", ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explicit batch of %d starts at ID %d\n", len(ids), first)
}
