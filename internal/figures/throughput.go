package figures

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/stream"
)

// Fig6a reproduces the publish-throughput study (§4.2.3): a SCoRe queue on
// one node, clients with 1..40 threads publishing 16 B events over TCP.
// The paper sees throughput peak near 16 client threads and degrade beyond
// (the queue node saturates).
func Fig6a(opts Options) (*Table, error) {
	t := &Table{
		ID:      "6a",
		Title:   "Publish throughput vs client threads (16B events over TCP)",
		Columns: []string{"client_threads", "events_per_sec"},
	}
	// Quick mode's 1-thread row still lasts several milliseconds, longer
	// than one scheduler preemption on a loaded host.
	eventsPerThread := opts.pick(1000, 4000)
	threadCounts := []int{1, 2, 4, 8, 16, 24, 32, 40}
	if opts.Quick {
		threadCounts = []int{1, 4, 16, 40}
	}
	payload := make([]byte, 16)
	for _, n := range threadCounts {
		broker := stream.NewBroker(1 << 12)
		srv, err := stream.Serve(broker, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, n)
		start := time.Now()
		for th := 0; th < n; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				client, err := stream.Dial(srv.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer client.Close()
				topic := fmt.Sprintf("t%d", th)
				for i := 0; i < eventsPerThread; i++ {
					if _, err := client.Publish(context.Background(), topic, payload); err != nil {
						errs <- err
						return
					}
				}
			}(th)
		}
		wg.Wait()
		elapsed := time.Since(start)
		srv.Close()
		broker.Close()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
		rate := float64(n*eventsPerThread) / elapsed.Seconds()
		t.AddRow(fmt.Sprint(n), f(rate))
	}
	t.Notes = append(t.Notes,
		"paper peaks at ~70K events/s with 16 client threads on Ares; absolute numbers differ on one host",
		"single-node test; the paper notes it scales linearly with node count")
	return t, nil
}

// Fig6b reproduces the subscribe-throughput study: one queue node, N
// subscriber "nodes" each running 40 subscriber threads; 16 K events of
// 16 B are published and every subscriber must receive them. The paper
// finds SCoRe scales well to 32 nodes without significant slowdown.
func Fig6b(opts Options) (*Table, error) {
	t := &Table{
		ID:      "6b",
		Title:   "Subscribe throughput vs subscriber nodes (40 threads each)",
		Columns: []string{"nodes", "events_per_sec_per_subscriber", "aggregate_deliveries_per_sec"},
	}
	events := opts.pick(500, 4000)
	threadsPerNode := opts.pick(4, 40)
	nodeCounts := []int{1, 2, 4, 8, 16, 32}
	if opts.Quick {
		nodeCounts = []int{1, 4, 16}
	}
	payload := make([]byte, 16)
	for _, nodes := range nodeCounts {
		broker := stream.NewBroker(1 << 15)
		srv, err := stream.Serve(broker, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		client, err := stream.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		subs := nodes * threadsPerNode
		var wg sync.WaitGroup
		errs := make(chan error, subs)
		start := time.Now()
		for sID := 0; sID < subs; sID++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur, err := client.Follow(ctx, "metric", 0)
				if err != nil {
					errs <- err
					return
				}
				for got := 0; got < events; {
					run, err := cur.Next()
					if err != nil {
						errs <- fmt.Errorf("subscriber starved at %d/%d: %w", got, events, err)
						return
					}
					got += len(run)
				}
			}()
		}
		// Publish after a short settling delay so subscribers are attached.
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < events; i++ {
			if _, err := broker.Publish(context.Background(), "metric", payload); err != nil {
				cancel()
				return nil, err
			}
		}
		wg.Wait()
		elapsed := time.Since(start)
		cancel()
		client.Close()
		srv.Close()
		broker.Close()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
		perSub := float64(events) / elapsed.Seconds()
		t.AddRow(fmt.Sprint(nodes), f(perSub), f(perSub*float64(subs)))
	}
	t.Notes = append(t.Notes,
		"paper: no significant slowdown to 32 nodes; each subscriber sees the full stream (fan-out)",
		"on one host the aggregate delivery rate is the scaling signal: it must stay flat as subscribers multiply")
	return t, nil
}
