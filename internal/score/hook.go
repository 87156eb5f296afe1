// Package score implements SCoRe — the Storage Condition Report (§3.2) —
// Apollo's distributed data structure: a DAG whose source vertices (Fact
// Vertices) capture metrics from cluster resources through monitor hooks at
// an adaptive interval, and whose inner/sink vertices (Insight Vertices)
// consume Facts and other Insights over the Pub-Sub fabric to derive
// higher-level Insights. Every vertex owns an in-memory timestamp-indexed
// queue, an optional Archiver log for evicted entries, and a Query Executor
// that the Apollo Query Engine fans out to.
package score

import (
	"sync"

	"repro/internal/telemetry"
)

// Hook is a monitor hook: the code that extracts one Metric from a hardware
// or software resource. Implementations live in package hooks.
type Hook interface {
	// Metric names the metric stream this hook feeds.
	Metric() telemetry.MetricID
	// Poll captures the current value. Poll runs on the vertex goroutine.
	Poll() (float64, error)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc struct {
	ID telemetry.MetricID
	Fn func() (float64, error)
}

// Metric implements Hook.
func (h HookFunc) Metric() telemetry.MetricID { return h.ID }

// Poll implements Hook.
func (h HookFunc) Poll() (float64, error) { return h.Fn() }

// ReplayHook replays a pre-captured trace (the paper's HACC emulation,
// §4.3.1): each Poll returns the next sample; past the end it holds the last
// value. ReplayHook is safe for single-goroutine vertex use.
type ReplayHook struct {
	ID    telemetry.MetricID
	Trace []float64

	mu  sync.Mutex
	pos int
}

// Metric implements Hook.
func (h *ReplayHook) Metric() telemetry.MetricID { return h.ID }

// Poll implements Hook.
func (h *ReplayHook) Poll() (float64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.Trace) == 0 {
		return 0, nil
	}
	v := h.Trace[h.pos]
	if h.pos < len(h.Trace)-1 {
		h.pos++
	}
	return v, nil
}
