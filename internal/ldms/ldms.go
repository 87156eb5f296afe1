// Package ldms is the comparison baseline of §4.4.1: a simplified
// re-implementation of the Lightweight Distributed Metric Service's
// architecture as the paper characterizes it — fixed-interval samplers on
// every node push metrics to a centralized store (LDMS stores into MySQL or
// flat files), and queries scan that store. The two structural differences
// from Apollo that the evaluation measures are (a) the fixed sampling
// interval and (b) the centralized, scan-on-query storage backend versus
// SCoRe's per-vertex in-memory queues with timestamp indexing.
package ldms

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sample is one stored measurement.
type Sample struct {
	Timestamp int64
	Value     float64
}

// Store is the centralized metric store. One global mutex serializes all
// access (the database bottleneck of §2.1), and reads are linear scans —
// there is no per-metric index beyond the table map.
type Store struct {
	mu     sync.Mutex
	tables map[string][]Sample
	// ScanPenalty models per-row query cost of the database backend;
	// zero disables it (pure data-structure comparison).
	ScanPenalty time.Duration
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: make(map[string][]Sample)} }

// Insert appends a sample to a table.
func (s *Store) Insert(table string, ts int64, v float64) {
	s.mu.Lock()
	s.tables[table] = append(s.tables[table], Sample{Timestamp: ts, Value: v})
	s.mu.Unlock()
}

// Rows returns the number of stored samples in a table.
func (s *Store) Rows(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables[table])
}

// Tables returns the number of tables.
func (s *Store) Tables() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables)
}

// Latest scans a table for its newest sample.
func (s *Store) Latest(table string) (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.tables[table]
	if len(rows) == 0 {
		return Sample{}, false
	}
	best := rows[0]
	for _, r := range rows[1:] {
		s.burn()
		if r.Timestamp >= best.Timestamp {
			best = r
		}
	}
	return best, true
}

// Range scans a table for samples in [from, to].
func (s *Store) Range(table string, from, to int64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Sample
	for _, r := range s.tables[table] {
		s.burn()
		if r.Timestamp >= from && r.Timestamp <= to {
			out = append(out, r)
		}
	}
	return out
}

// burn spends ScanPenalty of CPU per visited row. Caller holds s.mu, which
// is the point: scans block every sampler trying to insert.
func (s *Store) burn() {
	if s.ScanPenalty <= 0 {
		return
	}
	deadline := time.Now().Add(s.ScanPenalty)
	for time.Now().Before(deadline) {
	}
}

// Sampler polls one hook at a fixed interval and inserts into the store.
type Sampler struct {
	Hook     score.Hook
	Interval time.Duration
	Clock    sim.Clock

	store  *Store
	mu     sync.Mutex
	cancel chan struct{}
	done   chan struct{}
	polls  int
}

// Service is a fleet of samplers over one store — the LDMS deployment of the
// Fig. 12 comparison.
type Service struct {
	Store *Store

	mu       sync.Mutex
	samplers []*Sampler
	running  bool
}

// NewService builds an LDMS-like service.
func NewService() *Service { return &Service{Store: NewStore()} }

// AddSampler registers a fixed-interval sampler for hook.
func (s *Service) AddSampler(hook score.Hook, interval time.Duration, clock sim.Clock) *Sampler {
	sm := &Sampler{Hook: hook, Interval: interval, Clock: sim.Or(clock), store: s.Store}
	s.mu.Lock()
	s.samplers = append(s.samplers, sm)
	s.mu.Unlock()
	return sm
}

// Start launches every sampler.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return fmt.Errorf("ldms: already running")
	}
	s.running = true
	for _, sm := range s.samplers {
		sm.start()
	}
	return nil
}

// Stop terminates every sampler.
func (s *Service) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	samplers := append([]*Sampler(nil), s.samplers...)
	s.mu.Unlock()
	for _, sm := range samplers {
		sm.stop()
	}
}

// Polls sums hook invocations across samplers.
func (s *Service) Polls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, sm := range s.samplers {
		total += sm.Polls()
	}
	return total
}

func (sm *Sampler) start() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.cancel != nil {
		return
	}
	sm.cancel = make(chan struct{})
	sm.done = make(chan struct{})
	go sm.run(sm.cancel, sm.done)
}

func (sm *Sampler) stop() {
	sm.mu.Lock()
	cancel, done := sm.cancel, sm.done
	sm.cancel, sm.done = nil, nil
	sm.mu.Unlock()
	if cancel == nil {
		return
	}
	close(cancel)
	<-done
}

func (sm *Sampler) run(cancel chan struct{}, done chan struct{}) {
	defer close(done)
	for {
		sm.PollOnce()
		select {
		case <-cancel:
			return
		case <-sm.Clock.After(sm.Interval):
		}
	}
}

// PollOnce samples the hook once, for deterministic tests and for callers
// that pace the polls themselves.
func (sm *Sampler) PollOnce() {
	v, err := sm.Hook.Poll()
	if err == nil {
		sm.store.Insert(string(sm.Hook.Metric()), sm.Clock.Now().UnixNano(), v)
	}
	sm.mu.Lock()
	sm.polls++
	sm.mu.Unlock()
}

// Polls returns the hook invocation count.
func (sm *Sampler) Polls() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.polls
}

// Executor adapts one store table to the score.Executor interface so the
// Apollo Query Engine can run the identical resource query against LDMS
// (every read is a scan under the global lock).
type Executor struct {
	Store *Store
	Table string
}

// Latest implements score.Executor via full scan.
func (e Executor) Latest() (telemetry.Info, bool) {
	s, ok := e.Store.Latest(e.Table)
	if !ok {
		return telemetry.Info{}, false
	}
	return telemetry.NewFact(telemetry.MetricID(e.Table), s.Timestamp, s.Value), true
}

// ScanRange implements score.Executor via full scan.
func (e Executor) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	for _, r := range e.Store.Range(e.Table, from, to) {
		if !fn(telemetry.NewFact(telemetry.MetricID(e.Table), r.Timestamp, r.Value)) {
			return
		}
	}
}

var _ score.Executor = Executor{}

// Resolver resolves AQE tables against the store.
type Resolver struct {
	Store *Store
}

// Resolve implements aqe.Resolver's contract (returning a score.Executor).
func (r Resolver) Resolve(table string) (score.Executor, error) {
	if r.Store.Rows(table) == 0 && !r.hasTable(table) {
		return nil, fmt.Errorf("ldms: no such table %q", table)
	}
	return Executor{Store: r.Store, Table: table}, nil
}

func (r Resolver) hasTable(table string) bool {
	r.Store.mu.Lock()
	defer r.Store.mu.Unlock()
	_, ok := r.Store.tables[table]
	return ok
}
