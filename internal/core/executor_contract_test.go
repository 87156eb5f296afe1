package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/aqe"
	"repro/internal/ldms"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestExecutorContract is the one contract for the one range verb. For every
// score.Executor the query engine can be handed — a Fact vertex whose first
// tuples have left a 16-slot ring for the archive, an Insight vertex, the
// bus executor of apolloctl and the gateway, the LDMS baseline's — ScanRange
// visits exactly the tuples in [from, to], in order, and stops when fn says
// so; and Service.Range is that scan collected.
func TestExecutorContract(t *testing.T) {
	const n = 40
	ctx := context.Background()
	fact := func(i int) telemetry.Info { return telemetry.NewFact("m", int64(i)*int64(time.Second), float64(i)) }

	cases := []struct {
		name string
		// build returns the executor holding want, oldest first, and, for a
		// vertex, the service it is registered on.
		build func(t *testing.T) (ex score.Executor, want []telemetry.Info, svc *Service)
	}{
		{"fact vertex, archive behind a 16-slot ring", func(t *testing.T) (score.Executor, []telemetry.Info, *Service) {
			clock := sim.NewVirtual(time.Unix(0, 0))
			s := New(Config{Clock: clock, ArchiveDir: t.TempDir(), HistorySize: 16})
			t.Cleanup(s.Stop)
			trace := make([]float64, n)
			for i := range trace {
				trace[i] = float64(i + 1)
			}
			v, err := s.RegisterMetric(&score.ReplayHook{ID: "m", Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			var want []telemetry.Info
			for i := 0; i < n; i++ {
				clock.Advance(time.Second)
				v.PollOnce()
				in, _ := v.Latest()
				want = append(want, in)
			}
			return v, want, s
		}},
		{"insight vertex", func(t *testing.T) (score.Executor, []telemetry.Info, *Service) {
			clock := sim.NewVirtual(time.Unix(0, 0))
			s := New(Config{Clock: clock})
			v, err := s.RegisterInsight("m", []telemetry.MetricID{"in"}, score.Sum)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Stop)
			var want []telemetry.Info
			for i := 1; i <= n; i++ {
				clock.Advance(time.Second)
				p, _ := telemetry.NewFact("in", int64(i), float64(i)).MarshalBinary()
				if _, err := s.Broker().Publish(ctx, "in", p); err != nil {
					t.Fatal(err)
				}
				// The insight stamps with the clock when it gets there: wait
				// for it before the clock moves on.
				waitFor(t, func() bool { in, ok := v.Latest(); return ok && in.Value == float64(i) })
				in, _ := v.Latest()
				want = append(want, in)
			}
			return v, want, s
		}},
		{"bus executor", func(t *testing.T) (score.Executor, []telemetry.Info, *Service) {
			b := stream.NewBroker(0)
			t.Cleanup(b.Close)
			var want []telemetry.Info
			for i := 1; i <= n; i++ {
				p, _ := fact(i).MarshalBinary()
				if _, err := b.Publish(ctx, "m", p); err != nil {
					t.Fatal(err)
				}
				want = append(want, fact(i))
			}
			ex, err := aqe.BusResolver{Bus: b}.Resolve("m")
			if err != nil {
				t.Fatal(err)
			}
			return ex, want, nil
		}},
		{"ldms executor", func(t *testing.T) (score.Executor, []telemetry.Info, *Service) {
			st := ldms.NewStore()
			var want []telemetry.Info
			for i := 1; i <= n; i++ {
				st.Insert("m", fact(i).Timestamp, fact(i).Value)
				want = append(want, fact(i))
			}
			return ldms.Executor{Store: st, Table: "m"}, want, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, want, svc := tc.build(t)
			if len(want) != n {
				t.Fatalf("built %d tuples, want %d", len(want), n)
			}
			for i := 1; i < n; i++ {
				if want[i].Timestamp <= want[i-1].Timestamp {
					t.Fatalf("tuple %d at %d after %d: the windows below need distinct stamps", i, want[i].Timestamp, want[i-1].Timestamp)
				}
			}
			ts := func(i int) int64 { return want[i].Timestamp }
			for _, w := range [][2]int64{
				{math.MinInt64, math.MaxInt64},
				{ts(0), ts(n - 1)},
				{ts(5), ts(30)}, // from the archive into the ring, for the fact vertex
				{ts(5) + 1, ts(30) - 1},
				{ts(n - 3), math.MaxInt64},
				{math.MinInt64, ts(2)},
				{ts(20), ts(20)},
				{ts(30), ts(5)}, // inverted: nothing
				{ts(n-1) + 1, math.MaxInt64},
			} {
				var model []telemetry.Info
				for _, in := range want {
					if in.Timestamp >= w[0] && in.Timestamp <= w[1] {
						model = append(model, in)
					}
				}
				var got []telemetry.Info
				ex.ScanRange(w[0], w[1], func(in telemetry.Info) bool { got = append(got, in); return true })
				if !reflect.DeepEqual(got, model) {
					t.Fatalf("ScanRange(%d, %d) visited %d tuples, want %d\n got %v\nwant %v", w[0], w[1], len(got), len(model), got, model)
				}
				if svc != nil {
					if got := scan(svc, "m", w[0], w[1]); !reflect.DeepEqual(got, model) {
						t.Fatalf("Service.Range(%d, %d) = %v, want %v", w[0], w[1], got, model)
					}
				}
			}
			for _, stop := range []int{1, 7, 30} { // 7 ends in the fact vertex's archive, 30 in its ring
				visited := 0
				ex.ScanRange(math.MinInt64, math.MaxInt64, func(telemetry.Info) bool { visited++; return visited < stop })
				if visited != stop {
					t.Fatalf("fn returned false at tuple %d, the scan went on to %d", stop, visited)
				}
			}
		})
	}
}
