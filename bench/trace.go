package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed step. The spans of one tuple, query or replay share an
// ID; Parent names the span of the same ID that caused this one ("" for a
// root). Times are ns since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 200_000

// recorder keeps spans in memory until the run ends. It records only while
// switched on, so one process can measure the same load with and without it.
type recorder struct {
	start   int64 // the run's epoch, unix ns
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{start: epoch.UnixNano(), spans: make([]span, 0, maxSpans)}
}

// epoch is the unix time spans are relative to; 0 for a nil recorder, whose
// add ignores them anyway.
func (r *recorder) epoch() int64 {
	if r == nil {
		return 0
	}
	return r.start
}

// add records a span; a nil or switched-off recorder ignores it.
func (r *recorder) add(id uint64, name, parent string, start, end int64) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{id, name, parent, start, end})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// spanStat is one span name's totals.
type spanStat struct {
	name        string
	count       int
	total, self int64 // ns; self is total minus the part its child spans cover
}

// selfTimes groups spans by ID and charges each span its duration minus the
// union of the intervals its children (spans naming it as parent) cover.
func selfTimes(spans []span) []spanStat {
	byID := make(map[uint64][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	stats := make(map[string]*spanStat)
	for _, idx := range byID {
		for _, i := range idx {
			p := spans[i]
			var kids [][2]int64
			for _, j := range idx {
				if c := spans[j]; j != i && c.Parent == p.Name {
					kids = append(kids, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
				}
			}
			st := stats[p.Name]
			if st == nil {
				st = &spanStat{name: p.Name}
				stats[p.Name] = st
			}
			d := p.End - p.Start
			st.count++
			st.total += d
			st.self += d - covered(kids)
		}
	}
	out := make([]spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := int64(math.MinInt64)
	for _, v := range iv {
		switch {
		case v[1] <= v[0]:
		case v[0] > end:
			sum += v[1] - v[0]
			end = v[1]
		case v[1] > end:
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// budgetLine is one layer's share of the cost of an end-to-end unit of work.
type budgetLine struct {
	layer   string
	nsPerOp float64 // cost of one call
	ops     float64 // calls inside the window
	wait    bool    // wall time spent waiting, kept out of the CPU sum
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Dropped  int      `json:"dropped_spans"`
	Counters []string `json:"counters"`
	Spans    []span   `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64, counters []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(traceFile{workload, seed, r.dropped, counters, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// formatBudget renders the per-layer table (span totals and self times) and
// the budget: the sum of each layer's cost per call times its calls per unit
// of work, against the CPU the process really used per unit, the remainder
// being what no layer accounts for.
func formatBudget(stats []spanStat, lines []budgetLine, unit string, units, cpuUSPerUnit float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %12s %12s %11s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-28s %9d %12.3f %12.3f %11.3f\n", s.name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6, float64(s.total)/float64(max(s.count, 1))/1e3)
	}
	fmt.Fprintf(&b, "%-28s %12s %14s %14s\n", "budget layer", "ns/call", "calls/"+unit, "us/"+unit)
	var sum float64
	for _, l := range lines {
		per := 0.0
		if units > 0 {
			per = l.nsPerOp * l.ops / units / 1e3
		}
		note := ""
		if l.wait {
			note = "  (wait, not summed)"
		} else {
			sum += per
		}
		fmt.Fprintf(&b, "%-28s %12.1f %14.4f %14.4f%s\n", l.layer, l.nsPerOp, l.ops/max(units, 1), per, note)
	}
	share := 0.0
	if cpuUSPerUnit > 0 {
		share = (cpuUSPerUnit - sum) / cpuUSPerUnit
	}
	fmt.Fprintf(&b, "budget: layers %.4f us/%s of %.4f us/%s measured; unattributed %.4f us (%.1f %%)\n",
		sum, unit, cpuUSPerUnit, unit, cpuUSPerUnit-sum, 100*share)
	return b.String()
}
