package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/delphi"
	"repro/internal/delphi/registry"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DeviceClass maps a metric ID to its Delphi device class: the segment after
// the last '.' in the cluster naming convention ("comp00.nvme0.capacity" →
// "capacity"), so all devices exposing the same kind of signal share one
// combiner lineage; a metric without dots is its own class. Classes are the
// unit of model versioning, promotion, and retraining.
func DeviceClass(id telemetry.MetricID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '.'); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// defaultClass is the one class of a service without a model registry.
const defaultClass = "default"

// retrainSeed makes every retrain's combiner fit deterministic.
const retrainSeed = 1

// RetrainKind classifies a retrain outcome. The drift transcript prints it as
// a number, so the values are fixed.
type RetrainKind int

const (
	// RetrainRejected: the candidate did not beat the serving model, or the
	// class had too little history to train one.
	RetrainRejected RetrainKind = iota
	// RetrainPromoted: the candidate beat the serving model on the holdout,
	// was saved and promoted in the registry, and now serves the class.
	RetrainPromoted
	// RetrainError: retraining failed outright (registry I/O, invalid base,
	// unknown class, or retraining is off).
	RetrainError
)

// RetrainEvent is one retrain outcome, as Service.Retrain returns it.
type RetrainEvent struct {
	Class   string
	Kind    RetrainKind
	Version int // promoted version, 0 unless RetrainPromoted
	Report  delphi.RetrainReport
	Err     error // set for RetrainError
}

// delphiFleet is the Delphi serving layer, built whenever the service has a
// model or a registry: metrics shard into device classes, each with its own
// model and drift/retrain loop. With Config.DelphiRegistry set a class serves
// the registry's active version (falling back to Config.Delphi for classes
// with no lineage yet); without one the fleet is a single class "default"
// serving Config.Delphi, and nothing is retrained.
//
// With a registry and Config.DelphiRetrain > 0 the fleet also retrains: a
// drift trip queues the member's class, and every DelphiRetrain on the
// service clock the queued classes retrain one at a time, off the hot path.
// A class whose candidate is not promoted goes back on the queue, so it is
// retried next cycle with more post-drift data.
type delphiFleet struct {
	cfg Config
	obs *obs.Registry

	reg *registry.Registry // nil without Config.DelphiRegistry

	mu sync.Mutex
	// classes is sorted by name. Adding a class replaces the slice, so
	// predictAll iterates its snapshot without holding mu.
	classes []*deviceClass
	// queue is the FIFO of classes awaiting retraining, each at most once
	// (deviceClass.queued, also guarded by mu).
	queue []*deviceClass

	startOnce sync.Once
	stopLoop  func() // ends the retrain cadence; nil: never started
	// fitMu runs one fit at a time, so the registry's active version and the
	// class's model move together. It is taken before any class lock.
	fitMu sync.Mutex

	retrainRuns       *obs.Counter
	retrainPromotions *obs.Counter
	retrainRejected   *obs.Counter
	retrainErrors     *obs.Counter
	retrainSeconds    *obs.Histogram
}

// deviceClass is one model shard and the one owner of its members. Its
// mutex guards membership and the model, and orders attach, promote and
// predictAll, so a sweep never reads a half-applied promotion. Lock order is
// class, then member Online.
type deviceClass struct {
	name   string
	queued bool // on the fleet's retrain queue; guarded by delphiFleet.mu

	mu        sync.Mutex
	model     *delphi.Model
	metrics   []telemetry.MetricID
	onlines   []*delphi.Online
	detectors []*delphi.Detector
	vertices  []*score.FactVertex
	version   int
}

func newDelphiFleet(cfg Config, o *obs.Registry) (*delphiFleet, error) {
	f := &delphiFleet{cfg: cfg, obs: o}
	if cfg.DelphiRegistry == "" {
		// The one class exists from the start, so its instruments do too.
		f.classFor(defaultClass)
		return f, nil
	}
	var err error
	if f.reg, err = registry.Open(cfg.DelphiRegistry); err != nil {
		return nil, err
	}
	if f.retrains() {
		f.retrainRuns = o.Counter("delphi_retrain_runs_total")
		f.retrainPromotions = o.Counter("delphi_retrain_promotions_total")
		f.retrainRejected = o.Counter("delphi_retrain_rejected_total")
		f.retrainErrors = o.Counter("delphi_retrain_errors_total")
		f.retrainSeconds = o.Histogram("delphi_retrain_seconds")
	}
	return f, nil
}

// retrains reports whether the fleet retrains drifted classes.
func (f *delphiFleet) retrains() bool { return f.reg != nil && f.cfg.DelphiRetrain > 0 }

// className maps a metric to its shard: its DeviceClass under a registry,
// the single default class without one (so metric names that do not follow
// the cluster convention do not become one class each).
func (f *delphiFleet) className(id telemetry.MetricID) string {
	if f.reg == nil {
		return defaultClass
	}
	return DeviceClass(id)
}

// lookup finds a class by name, or returns nil. Caller holds f.mu.
func (f *delphiFleet) lookup(name string) *deviceClass {
	i := sort.Search(len(f.classes), func(i int) bool { return f.classes[i].name >= name })
	if i < len(f.classes) && f.classes[i].name == name {
		return f.classes[i]
	}
	return nil
}

// class finds a class by name, or returns nil.
func (f *delphiFleet) class(name string) *deviceClass {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookup(name)
}

// classFor returns (creating on first use) the named shard. A freshly
// created class serves the registry's active version if one exists,
// otherwise the service-wide base model.
func (f *delphiFleet) classFor(name string) *deviceClass {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.lookup(name); c != nil {
		return c
	}
	c := &deviceClass{name: name, model: f.cfg.Delphi}
	if f.reg != nil {
		if m, v, err := f.reg.Active(name); err == nil {
			c.model, c.version = m, v
		}
		f.obs.Gauge(obs.Name("delphi_model_version", "class", name)).Set(float64(c.version))
	}
	f.classes = append(f.classes[:len(f.classes):len(f.classes)], c)
	sort.Slice(f.classes, func(i, j int) bool { return f.classes[i].name < f.classes[j].name })
	return c
}

// newOnline wraps the class's current model for one vertex.
func (c *deviceClass) newOnline() *delphi.Online {
	c.mu.Lock()
	defer c.mu.Unlock()
	return delphi.NewOnline(c.model)
}

// attach enrolls a registered vertex in the shard. det may be nil when drift
// detection is off.
func (c *deviceClass) attach(id telemetry.MetricID, o *delphi.Online, det *delphi.Detector, v *score.FactVertex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A promotion may have landed since newOnline: serve the class's model.
	// A class without a trained model has nothing to swap in, and o stays as
	// newOnline made it.
	_ = o.SwapModel(c.model)
	c.metrics = append(c.metrics, id)
	c.onlines = append(c.onlines, o)
	c.detectors = append(c.detectors, det)
	c.vertices = append(c.vertices, v)
}

// measuredSegments snapshots every member vertex's measured history — the
// retrain dataset. It runs off the hot path; the zero-copy scan iterates the
// live ring without copying tuples, only the float values land in the
// segment buffers.
func (c *deviceClass) measuredSegments() [][]float64 {
	c.mu.Lock()
	vertices := append([]*score.FactVertex(nil), c.vertices...)
	c.mu.Unlock()
	segs := make([][]float64, 0, len(vertices))
	for _, v := range vertices {
		var seg []float64
		v.History().RangeFunc(-1<<62, 1<<62, func(in telemetry.Info) bool {
			if in.Source == telemetry.Measured {
				seg = append(seg, in.Value)
			}
			return true
		})
		if len(seg) > 0 {
			segs = append(segs, seg)
		}
	}
	return segs
}

func (c *deviceClass) currentModel() *delphi.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model
}

// promote installs a freshly validated model: swap every serving engine,
// lift the measured-only fallback, and re-arm the detectors so the new model
// is judged from scratch. The engine is compiled once, by the first SwapModel,
// before any per-instance lock is taken — steady-state Predict calls are
// blocked only for pointer swaps, never for compilation or I/O.
func (c *deviceClass) promote(m *delphi.Model, version int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.model, c.version = m, version
	for i, o := range c.onlines {
		_ = o.SwapModel(m)
		o.SetFallback(false)
		if d := c.detectors[i]; d != nil {
			d.Reset()
		}
	}
}

// predictAll reads every member's own forecast, classes in name order, under
// the class lock so that a sweep never interleaves with a promotion.
func (f *delphiFleet) predictAll() []BatchResult {
	f.mu.Lock()
	classes := f.classes
	f.mu.Unlock()

	var out []BatchResult
	for _, c := range classes {
		c.mu.Lock()
		out = slices.Grow(out, len(c.onlines))
		for i, o := range c.onlines {
			v, ok := o.Predict()
			out = append(out, BatchResult{Metric: c.metrics[i], Value: v, OK: ok})
		}
		c.mu.Unlock()
	}
	return out
}

// start arms the retrain cadence, once. A stopped fleet does not start.
func (f *delphiFleet) start() {
	f.startOnce.Do(func() {
		if f.retrains() {
			f.stopLoop = sim.Every(f.cfg.Clock, f.cfg.DelphiRetrain, f.drain)
		}
	})
}

// stop ends the retrain cadence and waits for a retrain in flight.
func (f *delphiFleet) stop() {
	f.startOnce.Do(func() {}) // a later start arms nothing
	if f.stopLoop != nil {
		f.stopLoop()
	}
}

// enqueue queues c for the next retrain cycle unless it is queued already: a
// class whose members trip every poll holds one place, not one per poll.
func (f *delphiFleet) enqueue(c *deviceClass) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !c.queued {
		c.queued = true
		f.queue = append(f.queue, c)
	}
}

// drain retrains every queued class, in queue order.
func (f *delphiFleet) drain() {
	f.mu.Lock()
	batch := f.queue
	f.queue = nil
	for _, c := range batch {
		c.queued = false
	}
	f.mu.Unlock()
	for _, c := range batch {
		f.retrain(c)
	}
}

// retrain retrains c, counts the outcome, and queues c again unless it was
// promoted.
func (f *delphiFleet) retrain(c *deviceClass) RetrainEvent {
	start := f.cfg.Clock.Now()
	f.retrainRuns.Inc()
	f.fitMu.Lock()
	ev := f.fit(c)
	f.fitMu.Unlock()
	f.retrainSeconds.ObserveDuration(f.cfg.Clock.Now().Sub(start))
	switch ev.Kind {
	case RetrainPromoted:
		f.retrainPromotions.Inc()
		f.obs.Gauge(obs.Name("delphi_model_version", "class", c.name)).Set(float64(ev.Version))
	case RetrainRejected:
		f.retrainRejected.Inc()
		f.enqueue(c)
	default:
		f.retrainErrors.Inc()
		f.enqueue(c)
	}
	return ev
}

// fit trains a candidate on c's measured history and, only if it beats the
// serving model on a holdout it never trained on, saves and promotes it in
// the registry and then installs it in c.
func (f *delphiFleet) fit(c *deviceClass) RetrainEvent {
	ev := RetrainEvent{Class: c.name}
	cand, rep, err := delphi.RetrainCombiner(c.currentModel(), c.measuredSegments(), retrainSeed)
	ev.Report = rep
	switch {
	case errors.Is(err, delphi.ErrInsufficientData), err == nil && !rep.Improved:
		ev.Kind = RetrainRejected
		return ev
	case err != nil:
		ev.Kind, ev.Err = RetrainError, err
		return ev
	}
	v, err := f.reg.Save(c.name, cand)
	if err == nil {
		err = f.reg.Promote(c.name, v)
	}
	if err != nil {
		ev.Kind, ev.Err = RetrainError, err
		return ev
	}
	c.promote(cand, v)
	ev.Kind, ev.Version = RetrainPromoted, v
	return ev
}

// Retrain retrains one device class now and returns the outcome: the path
// the Config.DelphiRetrain cadence takes, for callers that retrain at exact
// instants, such as deterministic scenarios on virtual time. A class that is
// not promoted goes back on the retrain queue. Retraining needs both
// Config.DelphiRegistry and Config.DelphiRetrain; without them, or for an
// unknown class, the outcome is RetrainError.
func (s *Service) Retrain(class string) RetrainEvent {
	if s.fleet == nil || !s.fleet.retrains() {
		return RetrainEvent{Class: class, Kind: RetrainError, Err: errors.New("core: retraining needs DelphiRegistry and DelphiRetrain")}
	}
	c := s.fleet.class(class)
	if c == nil {
		return RetrainEvent{Class: class, Kind: RetrainError, Err: fmt.Errorf("core: unknown device class %q", class)}
	}
	return s.fleet.retrain(c)
}

// ModelVersion reports the active model version serving a device class
// (0 while a class still runs the unversioned base model or is unknown).
func (s *Service) ModelVersion(class string) int {
	if s.fleet == nil {
		return 0
	}
	c := s.fleet.class(class)
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}
