package ldms

import (
	"testing"
	"time"

	"repro/internal/aqe"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestStoreInsertLatest(t *testing.T) {
	s := NewStore()
	if _, ok := s.Latest("t"); ok {
		t.Fatal("latest on empty table")
	}
	s.Insert("t", 1, 10)
	s.Insert("t", 3, 30)
	s.Insert("t", 2, 20)
	got, ok := s.Latest("t")
	if !ok || got.Timestamp != 3 || got.Value != 30 {
		t.Fatalf("latest=%v ok=%v", got, ok)
	}
	if s.Rows("t") != 3 || s.Tables() != 1 {
		t.Fatalf("rows=%d tables=%d", s.Rows("t"), s.Tables())
	}
}

func TestStoreRange(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Insert("t", int64(i*10), float64(i))
	}
	got := s.Range("t", 25, 55)
	if len(got) != 3 || got[0].Timestamp != 30 || got[2].Timestamp != 50 {
		t.Fatalf("range=%v", got)
	}
}

func TestSamplerFixedInterval(t *testing.T) {
	svc := NewService()
	clock := sim.NewVirtual(time.Unix(0, 0))
	hook := score.HookFunc{ID: "m", Fn: func() (float64, error) { return 5, nil }}
	sm := svc.AddSampler(hook, time.Second, clock)
	for i := 0; i < 4; i++ {
		sm.PollOnce()
		clock.Advance(time.Second)
	}
	if sm.Polls() != 4 || svc.Polls() != 4 {
		t.Fatalf("polls=%d", sm.Polls())
	}
	// LDMS stores every sample — no change filter.
	if svc.Store.Rows("m") != 4 {
		t.Fatalf("rows=%d", svc.Store.Rows("m"))
	}
}

func TestServiceStartStop(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := sim.NewVirtual(start)
	svc := NewService()
	hook := score.HookFunc{ID: "m", Fn: func() (float64, error) { return 1, nil }}
	svc.AddSampler(hook, time.Millisecond, clk)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	// The sampler polls, then parks on the clock until the next interval.
	for i := 0; i < 2; i++ {
		<-clk.BlockUntil(1)
		clk.Advance(time.Millisecond)
	}
	<-clk.BlockUntil(1)
	svc.Stop()
	svc.Stop() // idempotent
	rows := svc.Store.Range("m", 0, start.Add(time.Hour).UnixNano())
	if len(rows) != 3 {
		t.Fatalf("rows=%v, want 3 polls", rows)
	}
	for i, r := range rows {
		if want := start.Add(time.Duration(i) * time.Millisecond).UnixNano(); r.Timestamp != want {
			t.Fatalf("poll %d stamped %d, want %d", i, r.Timestamp, want)
		}
	}
}

func TestExecutorAdapters(t *testing.T) {
	s := NewStore()
	s.Insert("cap", 10, 100)
	s.Insert("cap", 20, 90)
	ex := Executor{Store: s, Table: "cap"}
	latest, ok := ex.Latest()
	if !ok || latest.Timestamp != 20 || latest.Value != 90 {
		t.Fatalf("latest=%v", latest)
	}
	var rng []telemetry.Info
	ex.ScanRange(5, 15, func(in telemetry.Info) bool { rng = append(rng, in); return true })
	if len(rng) != 1 || rng[0].Value != 100 {
		t.Fatalf("range=%v", rng)
	}
	empty := Executor{Store: s, Table: "ghost"}
	if _, ok := empty.Latest(); ok {
		t.Fatal("ghost latest ok")
	}
}

func TestAQEOverLDMS(t *testing.T) {
	// The identical resource query of Fig. 12 runs against the LDMS store.
	s := NewStore()
	s.Insert("pfs_capacity", 100, 500)
	s.Insert("node_1_memory", 100, 64)
	eng := aqe.NewEngine(Resolver{Store: s})
	res, err := eng.Query("SELECT MAX(Timestamp), metric FROM pfs_capacity UNION SELECT MAX(Timestamp), metric FROM node_1_memory")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].F != 500 || res.Rows[1][1].F != 64 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if _, err := eng.Query("SELECT metric FROM ghost"); err == nil {
		t.Fatal("ghost table resolved")
	}
}

func TestScanPenaltySlowsQueries(t *testing.T) {
	fast, slow := NewStore(), NewStore()
	slow.ScanPenalty = 200 * time.Nanosecond
	for i := 0; i < 5000; i++ {
		fast.Insert("t", int64(i), 0)
		slow.Insert("t", int64(i), 0)
	}
	t0 := time.Now()
	fast.Latest("t")
	fastD := time.Since(t0)
	t1 := time.Now()
	slow.Latest("t")
	slowD := time.Since(t1)
	if slowD <= fastD {
		t.Fatalf("penalty had no effect: fast=%v slow=%v", fastD, slowD)
	}
}

func BenchmarkLDMSLatestScan(b *testing.B) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		s.Insert("t", int64(i), float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Latest("t")
	}
}
