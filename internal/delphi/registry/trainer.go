package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/delphi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ClassSpec tells the Trainer how to retrain one device class: where its
// live measured history comes from, which model to improve on, and how to
// push a promoted model back into the serving path.
type ClassSpec struct {
	// Name is the device class, also its registry namespace.
	Name string
	// Source returns the class's measured series, one trailing segment per
	// metric (typically zero-copy snapshots of queue.History rings). Called
	// on the trainer's goroutine, off the hot path.
	Source func() [][]float64
	// Base returns the model currently serving the class; the candidate must
	// beat it on the holdout to be promoted.
	Base func() *delphi.Model
	// Apply installs a promoted model into the serving path (engine swap,
	// fallback clear, detector reset). Called only after the registry has
	// durably saved and promoted the version.
	Apply func(m *delphi.Model, version int)
}

// EventKind classifies trainer events.
type EventKind int

const (
	// EventRejected: a candidate trained but did not beat the base model (or
	// there was too little data). The class stays queued for the next cycle.
	EventRejected EventKind = iota
	// EventPromoted: a candidate improved on the holdout, was saved and
	// promoted in the registry, and Apply installed it.
	EventPromoted
	// EventError: retraining failed outright (registry I/O, invalid base).
	EventError
)

// Event is one retraining outcome, as RunOnce returns it.
type Event struct {
	Class   string
	Kind    EventKind
	Version int // promoted version, 0 unless EventPromoted
	Report  delphi.RetrainReport
	Err     error // set for EventError
}

// Config parameterizes a Trainer. Registry is required; everything else
// defaults.
type Config struct {
	// Clock drives the retraining cadence (default wall clock). Scenarios
	// inject sim.Virtual and drive RunOnce directly for determinism.
	Clock sim.Clock
	// Interval is how often the background loop drains the retrain queue
	// (default 1m).
	Interval time.Duration
	// Registry stores candidates and the active-version pointers.
	Registry *Registry
	// Seed makes every delphi.RetrainCombiner fit deterministic.
	Seed int64
	// Obs, if set, receives delphi_retrain_runs_total,
	// delphi_retrain_promotions_total, delphi_retrain_rejected_total,
	// delphi_retrain_errors_total, delphi_retrain_seconds, and per-class
	// delphi_model_version gauges.
	Obs *obs.Registry
}

// Trainer retrains device classes in the background: drift detectors (or
// operators) Enqueue a class, and on every Interval tick the trainer pulls
// queued classes one at a time — retraining is deliberately off the hot path,
// not racing it for cores — rebuilds a dataset from live history, trains a
// candidate, and — only if the candidate beats the serving model on a holdout
// it never trained on — saves, promotes, and applies it. A rejected class
// stays queued, so it is retried next cycle with more post-drift data.
type Trainer struct {
	cfg     Config
	clock   sim.Clock
	specs   map[string]*ClassSpec
	specsMu sync.RWMutex

	queueMu sync.Mutex
	queued  map[string]bool
	order   []string // FIFO of queued classes, deduped by `queued`

	startOnce sync.Once
	stop      func() // ends the loop Start launched; nil: never started

	obsRuns       *obs.Counter
	obsPromotions *obs.Counter
	obsRejected   *obs.Counter
	obsErrors     *obs.Counter
	obsSeconds    *obs.Histogram
}

// NewTrainer builds a trainer over cfg.Registry.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Registry == nil {
		return nil, errors.New("registry: trainer needs a Registry")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	t := &Trainer{
		cfg:    cfg,
		clock:  sim.Or(cfg.Clock),
		specs:  make(map[string]*ClassSpec),
		queued: make(map[string]bool),

		obsRuns:       cfg.Obs.Counter("delphi_retrain_runs_total"),
		obsPromotions: cfg.Obs.Counter("delphi_retrain_promotions_total"),
		obsRejected:   cfg.Obs.Counter("delphi_retrain_rejected_total"),
		obsErrors:     cfg.Obs.Counter("delphi_retrain_errors_total"),
		obsSeconds:    cfg.Obs.Histogram("delphi_retrain_seconds"),
	}
	return t, nil
}

// RegisterClass adds (or replaces) a device class the trainer can retrain.
func (t *Trainer) RegisterClass(spec ClassSpec) error {
	if err := checkClass(spec.Name); err != nil {
		return err
	}
	if spec.Source == nil || spec.Base == nil {
		return fmt.Errorf("registry: class %s needs Source and Base", spec.Name)
	}
	t.specsMu.Lock()
	cp := spec
	t.specs[spec.Name] = &cp
	t.specsMu.Unlock()
	return nil
}

// Enqueue marks a class for retraining on the next cycle (idempotent while
// queued — a vertex tripping its drift detector every poll costs one queue
// entry, not one retrain per poll). Unknown classes are dropped.
func (t *Trainer) Enqueue(class string) {
	t.specsMu.RLock()
	_, known := t.specs[class]
	t.specsMu.RUnlock()
	if !known {
		return
	}
	t.queueMu.Lock()
	if !t.queued[class] {
		t.queued[class] = true
		t.order = append(t.order, class)
	}
	t.queueMu.Unlock()
}

// Pending reports how many classes are queued for retraining.
func (t *Trainer) Pending() int {
	t.queueMu.Lock()
	defer t.queueMu.Unlock()
	return len(t.order)
}

// Start launches the background cadence loop (idempotent; a stopped trainer
// does not start again). Every Interval on the configured clock it drains the
// queue.
func (t *Trainer) Start() {
	t.startOnce.Do(func() { t.stop = sim.Every(t.clock, t.cfg.Interval, t.drain) })
}

// Stop halts the background loop and waits for in-flight retrains
// (idempotent; safe without Start).
func (t *Trainer) Stop() {
	t.startOnce.Do(func() {}) // a later Start launches nothing
	if t.stop != nil {
		t.stop()
	}
}

// drain retrains every currently queued class, in queue order.
func (t *Trainer) drain() {
	t.queueMu.Lock()
	batch := t.order
	t.order = nil
	for _, c := range batch {
		delete(t.queued, c)
	}
	t.queueMu.Unlock()
	for _, class := range batch {
		t.RunOnce(class)
	}
}

// RunOnce retrains one class synchronously and returns its outcome — the
// same path the background loop takes, exposed so deterministic scenarios
// can drive retraining at exact virtual instants. A rejected or failed class
// is re-enqueued for the next cycle.
func (t *Trainer) RunOnce(class string) Event {
	start := t.clock.Now()
	t.specsMu.RLock()
	spec := t.specs[class]
	t.specsMu.RUnlock()
	if spec == nil {
		return Event{Class: class, Kind: EventError, Err: fmt.Errorf("registry: unknown class %q", class)}
	}
	t.obsRuns.Inc()
	ev := t.retrain(spec)
	t.obsSeconds.ObserveDuration(t.clock.Now().Sub(start))
	switch ev.Kind {
	case EventPromoted:
		t.obsPromotions.Inc()
		t.cfg.Obs.Gauge(obs.Name("delphi_model_version", "class", class)).Set(float64(ev.Version))
	case EventRejected:
		t.obsRejected.Inc()
		t.Enqueue(class)
	case EventError:
		t.obsErrors.Inc()
		t.Enqueue(class)
	}
	return ev
}

func (t *Trainer) retrain(spec *ClassSpec) Event {
	ev := Event{Class: spec.Name}
	base := spec.Base()
	cand, rep, err := delphi.RetrainCombiner(base, spec.Source(), t.cfg.Seed)
	ev.Report = rep
	if errors.Is(err, delphi.ErrInsufficientData) {
		ev.Kind = EventRejected
		return ev
	}
	if err != nil {
		ev.Kind, ev.Err = EventError, err
		return ev
	}
	if !rep.Improved {
		ev.Kind = EventRejected
		return ev
	}
	v, err := t.cfg.Registry.Save(spec.Name, cand)
	if err != nil {
		ev.Kind, ev.Err = EventError, err
		return ev
	}
	if err := t.cfg.Registry.Promote(spec.Name, v); err != nil {
		ev.Kind, ev.Err = EventError, err
		return ev
	}
	if spec.Apply != nil {
		spec.Apply(cand, v)
	}
	ev.Kind, ev.Version = EventPromoted, v
	return ev
}
