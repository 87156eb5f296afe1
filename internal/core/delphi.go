package core

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/delphi"
	"repro/internal/delphi/registry"
	"repro/internal/obs"
	"repro/internal/score"
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

// delphiFleet is the Delphi serving layer, built whenever the service has a
// model or a registry: metrics shard into device classes, each with its own
// model and drift/retrain loop. With Config.DelphiRegistry set a class serves
// the registry's active version (falling back to Config.Delphi for classes
// with no lineage yet); without one the fleet is a single class "default"
// serving Config.Delphi, and there is no trainer.
type delphiFleet struct {
	cfg Config
	obs *obs.Registry

	reg     *registry.Registry // nil without Config.DelphiRegistry
	trainer *registry.Trainer  // nil unless reg is set and DelphiRetrain > 0

	mu sync.Mutex
	// classes is sorted by name. Adding a class replaces the slice, so
	// predictAll iterates its snapshot without holding mu.
	classes []*deviceClass
}

// deviceClass is one model shard and the one owner of its members. Its
// mutex guards membership and the model, and orders attach, promote and
// predictAll, so a sweep never reads a half-applied promotion. Lock order is
// class, then member Online.
type deviceClass struct {
	name  string
	fleet *delphiFleet

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
	if cfg.DelphiRetrain > 0 {
		f.trainer, err = registry.NewTrainer(registry.Config{
			Clock:    cfg.Clock,
			Interval: cfg.DelphiRetrain,
			Registry: f.reg,
			Seed:     1,
			Obs:      o,
		})
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

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

// classFor returns (creating on first use) the named shard. A freshly
// created class serves the registry's active version if one exists,
// otherwise the service-wide base model.
func (f *delphiFleet) classFor(name string) *deviceClass {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.lookup(name); c != nil {
		return c
	}
	c := &deviceClass{name: name, fleet: f, model: f.cfg.Delphi}
	if f.reg != nil {
		if m, v, err := f.reg.Active(name); err == nil {
			c.model, c.version = m, v
		}
		f.obs.Gauge(obs.Name("delphi_model_version", "class", name)).Set(float64(c.version))
	}
	f.classes = append(f.classes[:len(f.classes):len(f.classes)], c)
	sort.Slice(f.classes, func(i, j int) bool { return f.classes[i].name < f.classes[j].name })
	if f.trainer != nil {
		// Ignoring the error: the class name came from DeviceClass, which
		// yields registry-legal names for cluster-convention metric IDs.
		_ = f.trainer.RegisterClass(registry.ClassSpec{
			Name:   name,
			Source: c.measuredSegments,
			Base:   c.currentModel,
			Apply:  c.promote,
		})
	}
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
// retrainer's dataset source. Runs on the trainer's goroutine; the zero-copy
// scan iterates the live ring without copying tuples, only the float values
// land in the segment buffers.
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

func (f *delphiFleet) start() {
	if f.trainer != nil {
		f.trainer.Start()
	}
}

func (f *delphiFleet) stop() {
	if f.trainer != nil {
		f.trainer.Stop()
	}
}

// DelphiTrainer exposes the background retrainer, or nil unless both
// Config.DelphiRegistry and Config.DelphiRetrain are set. Deterministic
// scenarios drive it synchronously via RunOnce instead of waiting out the
// cadence.
func (s *Service) DelphiTrainer() *registry.Trainer {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.trainer
}

// ModelVersion reports the active model version serving a device class
// (0 while a class still runs the unversioned base model or is unknown).
func (s *Service) ModelVersion(class string) int {
	if s.fleet == nil {
		return 0
	}
	s.fleet.mu.Lock()
	c := s.fleet.lookup(class)
	s.fleet.mu.Unlock()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}
