package aqe

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// Resolver maps table names to SCoRe Query Executors. score.Graph adapted by
// GraphResolver is the standard implementation; the LDMS comparison plugs in
// its own store.
type Resolver interface {
	Resolve(table string) (score.Executor, error)
}

// aggregator is an Executor that can fold a window itself, cheaper than
// handing its tuples over: score's vertices do for a window their archive
// holds whole. ok is false when it cannot, and the engine scans.
type aggregator interface {
	AggregateRange(from, to int64) (s telemetry.Summary, ok bool)
}

// ErrNoSuchTable is returned when a queried table has no vertex.
var ErrNoSuchTable = errors.New("aqe: no such table")

var (
	errEmptyQuery = errors.New("aqe: empty query")
	errUnionArity = errors.New("aqe: UNION branches have different arity")
)

// GraphResolver adapts a SCoRe graph to the Resolver interface.
type GraphResolver struct {
	Graph *score.Graph
}

// Resolve implements Resolver.
func (r GraphResolver) Resolve(table string) (score.Executor, error) {
	v, ok := r.Graph.Lookup(telemetry.MetricID(table))
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return v, nil
}

// Cell is one result value.
type Cell struct {
	// Kind discriminates the union.
	Kind CellKind
	Int  int64
	F    float64
	Str  string
}

// CellKind tags Cell.
type CellKind int

// Cell kinds.
const (
	CellInt CellKind = iota
	CellFloat
	CellString
)

// String renders the cell.
func (c Cell) String() string {
	switch c.Kind {
	case CellInt:
		return fmt.Sprintf("%d", c.Int)
	case CellFloat:
		return fmt.Sprintf("%g", c.F)
	default:
		return c.Str
	}
}

func intCell(v int64) Cell     { return Cell{Kind: CellInt, Int: v} }
func floatCell(v float64) Cell { return Cell{Kind: CellFloat, F: v} }
func strCell(s string) Cell    { return Cell{Kind: CellString, Str: s} }

// Result is a query result: one row set per UNION branch, concatenated in
// branch order.
type Result struct {
	Columns []string
	Rows    [][]Cell
}

// Engine executes queries against a Resolver through prepared plans: query
// text is lexed, parsed, and compiled once per shape — the text with its
// integer literals lifted out — cached in an LRU keyed on the shape, and
// re-executed from the compiled form with each text's literals bound in. The
// zero value is not usable; construct with NewEngine.
type Engine struct {
	res     Resolver
	cache   *planCache // nil parses every text: the tests' uncached reference
	workers int        // branch fan-out bound: GOMAXPROCS

	obsHits      *obs.Counter
	obsMisses    *obs.Counter
	obsOccupancy *obs.Gauge
	obsLatency   *obs.Histogram
}

// NewEngine builds a query engine with a DefaultPlanCacheSize-entry plan
// cache.
func NewEngine(res Resolver) *Engine {
	return &Engine{res: res, cache: newPlanCache(DefaultPlanCacheSize), workers: runtime.GOMAXPROCS(0)}
}

// Instrument registers the engine's instruments on r: plan-cache hit/miss
// counters, a cache-occupancy gauge, and a query-latency histogram.
func (e *Engine) Instrument(r *obs.Registry) {
	e.obsHits = r.Counter("aqe_plan_cache_hits_total")
	e.obsMisses = r.Counter("aqe_plan_cache_misses_total")
	e.obsOccupancy = r.Gauge("aqe_plan_cache_size")
	e.obsLatency = r.Histogram("aqe_query_seconds", obs.DefLatencyBuckets...)
}

// Prepare returns the compiled plan for src: the cached plan of its shape
// bound to src's literals when there is one, else a fresh compile, cached for
// the next text of the shape.
func (e *Engine) Prepare(src string) (*Plan, error) {
	var (
		keyBuf [768]byte // a 16-branch latest union; longer text spills to the heap
		argBuf [4]int64
		key    []byte
		args   []int64
	)
	if e.cache != nil {
		key, args = shapeOf(keyBuf[:0], argBuf[:0], src)
		if t := e.cache.get(key, len(args)); t != nil {
			e.obsHits.Inc()
			if p := t.bind(args); p != nil {
				return p, nil
			}
			// LIMIT 0 on a cached shape: the parse below words the error.
		} else {
			e.obsMisses.Inc()
		}
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := compileQuery(q)
	if err != nil {
		return nil, err
	}
	if e.cache != nil {
		p.nargs = len(args)
		e.obsOccupancy.Set(float64(e.cache.put(key, p)))
	}
	return p, nil
}

// Query parses (or recalls) and executes src.
func (e *Engine) Query(src string) (*Result, error) {
	p, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return e.ExecutePlan(p)
}

// Execute runs an already-parsed query, compiling it without touching the
// plan cache (the AST has no canonical text to key on).
func (e *Engine) Execute(q *Query) (*Result, error) {
	p, err := compileQuery(q)
	if err != nil {
		return nil, err
	}
	return e.ExecutePlan(p)
}

// ExecutePlan runs a prepared plan. UNION branches that scan are resolved
// with bounded parallelism — "highly parallel and decoupled access to
// information within the Apollo service" (§3.1) — and their rows
// concatenated in branch order; a union of Latest() lookups runs in place
// (a goroutine hand-off costs more than the sixteen lookups it would share).
func (e *Engine) ExecutePlan(p *Plan) (*Result, error) {
	start := time.Now()
	defer func() { e.obsLatency.ObserveDuration(time.Since(start)) }()

	n := len(p.branches)
	res := &Result{Columns: p.Columns()}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || p.inline {
		res.Rows = make([][]Cell, 0, n) // a latest or aggregate branch is one row
		for i := range p.branches {
			var err error
			if res.Rows, err = e.execBranch(&p.branches[i], res.Rows); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	branchRows := make([][][]Cell, n)
	branchErrs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				branchRows[i], branchErrs[i] = e.execBranch(&p.branches[i], nil)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := range branchRows {
		if branchErrs[i] != nil {
			return nil, branchErrs[i]
		}
		res.Rows = append(res.Rows, branchRows[i]...)
	}
	return res, nil
}

// execBranch evaluates one compiled branch, appending its rows to rows.
func (e *Engine) execBranch(cs *compiledSelect, rows [][]Cell) ([][]Cell, error) {
	ex, err := e.res.Resolve(cs.table)
	if err != nil {
		return nil, err
	}

	// Fast path for the canonical latest-value query:
	// every item is either MAX(Timestamp) or a bare column, no WHERE.
	if cs.latest {
		if info, ok := ex.Latest(); ok {
			rows = append(rows, rowFromProj(cs.proj, info))
		}
		return rows, nil
	}

	// Aggregate path: the vertex's own fold when it has one and no bare
	// column needs the newest tuple, else one streaming pass accumulates
	// every aggregate; no row materialization at all. (Its one row is within
	// any LIMIT.)
	if cs.hasAgg {
		var st aggState
		pushed := false
		if ag, ok := ex.(aggregator); ok && cs.pushdown {
			st.s, pushed = ag.AggregateRange(cs.from, cs.to)
		}
		if !pushed {
			ex.ScanRange(cs.from, cs.to, func(in telemetry.Info) bool {
				st.observe(in)
				return true
			})
		}
		if st.s.Count == 0 {
			return rows, nil
		}
		row := make([]Cell, len(cs.aggs))
		for i, ext := range cs.aggs {
			row[i] = ext(&st)
		}
		return append(rows, row), nil
	}

	// Row path. Ascending scans stop as soon as LIMIT rows are produced
	// (early-LIMIT cutoff); descending ones without a LIMIT reverse their
	// rows in place, and with one keep a ring of the newest LIMIT entries and
	// emit it reversed.
	desc := cs.order != nil && cs.order.Desc
	if !desc || cs.limit == 0 {
		out, base := rows, len(rows) // out, not rows: only this path pays for a captured variable
		ex.ScanRange(cs.from, cs.to, func(in telemetry.Info) bool {
			out = append(out, rowFromProj(cs.proj, in))
			return cs.limit == 0 || len(out)-base < cs.limit
		})
		if desc {
			slices.Reverse(out[base:])
		}
		return out, nil
	}
	ring := make([]telemetry.Info, 0, cs.limit)
	pos := 0
	ex.ScanRange(cs.from, cs.to, func(in telemetry.Info) bool {
		if len(ring) < cs.limit {
			ring = append(ring, in)
		} else {
			ring[pos] = in
			pos = (pos + 1) % cs.limit
		}
		return true
	})
	for k := len(ring) - 1; k >= 0; k-- {
		rows = append(rows, rowFromProj(cs.proj, ring[(pos+k)%len(ring)]))
	}
	return rows, nil
}

// latestOnly reports whether the select list is satisfied by Latest():
// aggregates only of the form MAX(Timestamp) mixed with bare columns.
func latestOnly(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg == AggNone {
			continue
		}
		if it.Agg != AggMax || it.Col != ColTimestamp {
			return false
		}
	}
	return true
}
