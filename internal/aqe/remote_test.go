package aqe

import (
	"context"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestBusResolverOverBroker runs the engine against an in-process broker
// through the public bus surface — the exact shape the gateway and
// apolloctl use — and checks the shared plan cache serves repeat callers.
func TestBusResolverOverBroker(t *testing.T) {
	b := stream.NewBroker(0)
	defer b.Close()
	base := time.Unix(1700000000, 0).UnixNano()
	for i := 0; i < 10; i++ {
		in := telemetry.NewFact("m.cap", base+int64(i)*int64(time.Second), float64(i))
		p, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Publish(context.Background(), "m.cap", p); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(BusResolver{Bus: b})
	planCacheStats := cacheStats(eng)

	res, err := eng.Query("SELECT MAX(Value) FROM m.cap")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 9 {
		t.Fatalf("MAX(Value): got %+v", res.Rows)
	}

	// Same text from a "different principal": must be a plan-cache hit.
	if _, err := eng.Query("SELECT MAX(Value) FROM m.cap"); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := planCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("plan cache not shared across callers: hits=%d misses=%d", hits, misses)
	}

	res, err = eng.Query("SELECT MAX(Timestamp), metric FROM m.cap")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != base+9*int64(time.Second) {
		t.Fatalf("latest: got %+v", res.Rows)
	}
}
