package score

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// Executor is the per-vertex Query Executor interface the Apollo Query
// Engine fans out to: latest-value and timestamp-range access over one
// Information stream. ScanRange visits every entry with Timestamp in
// [from, to] in order — archive first, then in-memory history, for a vertex —
// without materializing a slice; fn returns false to stop the scan early.
type Executor interface {
	Latest() (telemetry.Info, bool)
	ScanRange(from, to int64, fn func(telemetry.Info) bool)
}

// Vertex is the common surface of Fact and Insight vertices.
type Vertex interface {
	Executor
	Start() error
	Stop()
	Stats() StatsSnapshot
	Health() HealthSnapshot
}

var (
	_ Vertex = (*FactVertex)(nil)
	_ Vertex = (*InsightVertex)(nil)
)

// Graph is the SCoRe DAG: it tracks registered vertices, their edges, and
// serves vertex lookup for the query engine. Users can register and
// unregister custom Fact and Insight vertices at runtime (§3.1).
type Graph struct {
	mu       sync.RWMutex
	vertices map[telemetry.MetricID]Vertex
	inputs   map[telemetry.MetricID][]telemetry.MetricID // insight -> inputs
}

// NewGraph returns an empty DAG.
func NewGraph() *Graph {
	return &Graph{
		vertices: make(map[telemetry.MetricID]Vertex),
		inputs:   make(map[telemetry.MetricID][]telemetry.MetricID),
	}
}

// RegisterFact adds a Fact Vertex (a DAG source).
func (g *Graph) RegisterFact(v *FactVertex) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.vertices[v.Metric()]; ok {
		return fmt.Errorf("score: vertex %q already registered", v.Metric())
	}
	g.vertices[v.Metric()] = v
	return nil
}

// RegisterInsight adds an Insight Vertex and its edges. Inputs need not be
// registered (they may live on other nodes); registered ones must not form a
// cycle.
func (g *Graph) RegisterInsight(v *InsightVertex) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.vertices[v.Metric()]; ok {
		return fmt.Errorf("score: vertex %q already registered", v.Metric())
	}
	// Cycle check: walking v.cfg.Inputs transitively must not reach v.
	var walk func(id telemetry.MetricID) bool
	seen := make(map[telemetry.MetricID]bool)
	walk = func(id telemetry.MetricID) bool {
		if id == v.Metric() {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, dep := range g.inputs[id] {
			if walk(dep) {
				return true
			}
		}
		return false
	}
	for _, in := range v.cfg.Inputs {
		if walk(in) {
			return fmt.Errorf("score: registering %q would create a cycle", v.Metric())
		}
	}
	g.vertices[v.Metric()] = v
	g.inputs[v.Metric()] = append([]telemetry.MetricID(nil), v.cfg.Inputs...)
	return nil
}

// Unregister stops and removes a vertex, reporting whether it existed.
func (g *Graph) Unregister(id telemetry.MetricID) bool {
	g.mu.Lock()
	v, ok := g.vertices[id]
	delete(g.vertices, id)
	delete(g.inputs, id)
	g.mu.Unlock()
	if ok {
		v.Stop()
	}
	return ok
}

// Lookup returns the vertex serving a metric.
func (g *Graph) Lookup(id telemetry.MetricID) (Vertex, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	return v, ok
}

// Health reports the publish-path health of every registered vertex, so a
// degraded DAG (broker outage, store-and-forward backlogs) is visible to
// operators and the query engine.
func (g *Graph) Health() map[telemetry.MetricID]HealthSnapshot {
	g.mu.RLock()
	vs := make(map[telemetry.MetricID]Vertex, len(g.vertices))
	for id, v := range g.vertices {
		vs[id] = v
	}
	g.mu.RUnlock()
	out := make(map[telemetry.MetricID]HealthSnapshot, len(vs))
	for id, v := range vs {
		out[id] = v.Health()
	}
	return out
}

// StartAll starts every registered vertex, sources first so insights find
// their upstream topics populated.
func (g *Graph) StartAll() error {
	g.mu.RLock()
	var facts, insights []Vertex
	for id, v := range g.vertices {
		if _, isInsight := g.inputs[id]; isInsight {
			insights = append(insights, v)
		} else {
			facts = append(facts, v)
		}
	}
	g.mu.RUnlock()
	for _, v := range append(facts, insights...) {
		if err := v.Start(); err != nil {
			return err
		}
	}
	return nil
}

// StopAll stops every vertex.
func (g *Graph) StopAll() {
	g.mu.RLock()
	vs := make([]Vertex, 0, len(g.vertices))
	for _, v := range g.vertices {
		vs = append(vs, v)
	}
	g.mu.RUnlock()
	for _, v := range vs {
		v.Stop()
	}
}
