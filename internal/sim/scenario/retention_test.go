package scenario

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestRetentionNeverDropsAckedTuple is the acceptance scenario for tiered
// retention: an hour of virtual time, one acked sample per virtual second,
// the background Compactor pass every virtual minute — and at every pass the
// invariant holds that no acked tuple inside the retention window has been
// dropped:
//
//   - age <= Raw: the exact tuple (bit-identical value) is returned by Range.
//   - age <= Rollup1m: the tuple's one-minute bucket still has coverage — a
//     raw, 10s, or 1m point — so downsampling never opens a hole.
//
// Tuples older than the outermost bound may linger (whole-file selection is
// conservative) but may never vanish early. Everything runs on sim.Virtual,
// so the run is deterministic and takes milliseconds of wall clock.
func TestRetentionNeverDropsAckedTuple(t *testing.T) {
	const metric = "sim.capacity"
	policy := archive.Retention{
		Raw:       2 * time.Minute,
		Rollup10s: 10 * time.Minute,
		Rollup1m:  40 * time.Minute,
	}

	start := time.Unix(1_000_000, 0)
	clk := sim.NewVirtual(start)
	dir := t.TempDir()
	l, err := archive.Open(dir, archive.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	comp := archive.NewCompactor(clk, time.Minute)
	comp.Add(l, policy)

	rng := rand.New(rand.NewSource(*simSeed))
	acked := make(map[int64]float64) // virtual ts (ns) -> value, only acked appends

	check := func(now int64) {
		// One Range pass over the whole retention window, then judge every
		// acked tuple against what came back. Rollup points are stamped with
		// their bucket start, so the window reaches one bucket further back
		// than the policy bound.
		from := now - int64(policy.Rollup1m) - int64(archive.Tier1mBucket)
		raw := make(map[int64]float64)
		covered := make(map[int64]bool) // 1m bucket start -> has a point
		if err := l.Range(from, now, func(in telemetry.Info) error {
			if in.Metric == metric {
				raw[in.Timestamp] = in.Value
				covered[in.Timestamp/int64(archive.Tier1mBucket)] = true
			}
			return nil
		}); err != nil {
			t.Fatalf("Range at now=%d: %v", now, err)
		}
		for ts, v := range acked {
			age := now - ts
			if age <= int64(policy.Raw) {
				if got, ok := raw[ts]; !ok || got != v {
					t.Fatalf("tuple ts=%d inside raw window lost or altered at now=%d (got %v ok=%v)",
						ts, now, got, ok)
				}
			}
			if age <= int64(policy.Rollup1m) && !covered[ts/int64(archive.Tier1mBucket)] {
				t.Fatalf("acked tuple ts=%d (age %s) has no coverage in its 1m bucket at now=%d",
					ts, time.Duration(age), now)
			}
		}
	}

	const horizon = time.Hour
	for sec := 0; sec < int(horizon/time.Second); sec++ {
		clk.Advance(time.Second)
		ts := clk.Now().UnixNano()
		in := telemetry.NewFact(metric, ts, 1000+rng.Float64()*64)
		if err := l.Append(in); err != nil {
			t.Fatalf("append at %d: %v", ts, err)
		}
		acked[ts] = in.Value
		if sec%60 == 59 {
			if err := comp.RunOnce(); err != nil {
				t.Fatalf("compaction pass: %v", err)
			}
			check(clk.Now().UnixNano())
		}
	}

	// The hierarchy actually tiered out: raw must not hold the whole hour.
	logs, err := archive.ListLogs(dir)
	if err != nil || len(logs) != 1 {
		t.Fatalf("ListLogs(%s) = %+v, %v: want the one log", dir, logs, err)
	}
	st := logs[0].Tiers
	if st[archive.Tier10s].Files == 0 || st[archive.Tier1m].Files == 0 {
		t.Fatalf("no rollup tiers materialized: %+v", st)
	}
	if st[archive.TierRaw].Records > uint64(2*policy.Raw/time.Second) {
		t.Fatalf("raw tier still holds %d records after an hour with Raw=%s", st[archive.TierRaw].Records, policy.Raw)
	}

	// Survives a reopen: the invariant holds against the on-disk state alone.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := archive.Open(dir, archive.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	now := clk.Now().UnixNano()
	covered := make(map[int64]bool)
	if err := re.Range(now-int64(policy.Rollup1m)-int64(archive.Tier1mBucket), now, func(in telemetry.Info) error {
		covered[in.Timestamp/int64(archive.Tier1mBucket)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for ts := range acked {
		if age := now - ts; age <= int64(policy.Rollup1m) && !covered[ts/int64(archive.Tier1mBucket)] {
			t.Fatalf("after reopen: acked tuple ts=%d lost its 1m-bucket coverage", ts)
		}
	}
}
