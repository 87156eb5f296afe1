package aqe

import (
	"fmt"

	"repro/internal/telemetry"
)

// Plan is a prepared query: per-branch compiled projections and aggregate
// extractors, so execution never re-interprets the select list per row, with
// the text's own time bounds and LIMIT in place. Plans are immutable and safe
// for concurrent reuse; Engine.Prepare caches one per query shape and binds
// it to each text's literals.
type Plan struct {
	cols     []string
	branches []compiledSelect
	// nargs is how many literals a text of this shape carries; 0 for a plan
	// that is its own binding (no literals, or a text keyed whole).
	nargs int
	// inline: every branch is a Latest() call, cheaper run in place than
	// handed to the branch fan-out.
	inline bool
}

// bind returns the plan for another text of p's shape carrying args: p itself
// when the shape has no literals, else a copy of the branch headers (the
// compiled row machinery is shared) with the arguments in place. It returns
// nil for a LIMIT the parser would have refused.
func (p *Plan) bind(args []int64) *Plan {
	if p.nargs == 0 {
		return p
	}
	b := &Plan{cols: p.cols, branches: append([]compiledSelect(nil), p.branches...), inline: p.inline}
	for i := range b.branches {
		cs := &b.branches[i]
		if r := cs.args.from; r.lit > 0 {
			cs.from = args[r.lit-1] + r.adj
		}
		if r := cs.args.to; r.lit > 0 {
			cs.to = args[r.lit-1] + r.adj
		}
		if r := cs.args.limit; r.lit > 0 {
			if args[r.lit-1] < 1 {
				return nil
			}
			cs.limit = int(args[r.lit-1])
		}
	}
	return b
}

// Columns returns the result column headers.
func (p *Plan) Columns() []string { return append([]string(nil), p.cols...) }

// projector renders one cell of a row from an Information tuple, compiled
// once per plan instead of switching on (Agg, Col) for every row.
type projector func(telemetry.Info) Cell

// aggState accumulates every aggregate of one branch: the fold of the
// scanned entries, or the fold a vertex handed back (see aggregator).
type aggState struct {
	s    telemetry.Summary
	last telemetry.Info // newest visited entry, for bare columns
}

func (st *aggState) observe(in telemetry.Info) {
	st.s.Add(in)
	st.last = in
}

// extractor renders one cell of the aggregate row from the final state.
type extractor func(*aggState) Cell

// compiledSelect is one UNION branch with its row machinery pre-bound.
type compiledSelect struct {
	table    string
	from, to int64
	order    *OrderBy
	limit    int
	args     branchArgs // the literals from, to and limit are bound from
	hasAgg   bool
	latest   bool // serviceable by Executor.Latest alone
	pushdown bool // every item an aggregate: a vertex's fold can answer it

	proj []projector // row projection (non-aggregate path)
	aggs []extractor // aggregate row extraction (aggregate path)
}

// compileQuery validates and compiles a parsed query. Aggregate/column
// mismatches (e.g. AVG(Timestamp)) are rejected here, at prepare time,
// instead of surfacing per execution.
func compileQuery(q *Query) (*Plan, error) {
	if len(q.Selects) == 0 {
		return nil, errEmptyQuery
	}
	arity := len(q.Selects[0].Items)
	for _, s := range q.Selects {
		if len(s.Items) != arity {
			return nil, errUnionArity
		}
	}
	p := &Plan{cols: make([]string, arity), branches: make([]compiledSelect, 0, len(q.Selects)), inline: true}
	for i, it := range q.Selects[0].Items {
		p.cols[i] = it.Label()
	}
	for _, s := range q.Selects {
		cs, err := compileSelect(s)
		if err != nil {
			return nil, err
		}
		p.branches = append(p.branches, cs)
		p.inline = p.inline && cs.latest
	}
	return p, nil
}

func compileSelect(s SelectStmt) (compiledSelect, error) {
	cs := compiledSelect{table: s.Table, order: s.Order, limit: s.Limit, args: s.args, from: -1 << 62, to: 1 << 62}
	if s.Where != nil {
		cs.from, cs.to = s.Where.From, s.Where.To
	}
	cs.pushdown = true
	for _, it := range s.Items {
		cs.hasAgg = cs.hasAgg || it.Agg != AggNone
		cs.pushdown = cs.pushdown && it.Agg != AggNone
	}
	cs.latest = s.Where == nil && s.Order == nil && s.Limit == 0 && cs.hasAgg && latestOnly(s.Items)

	cs.proj = make([]projector, len(s.Items))
	if cs.hasAgg {
		cs.aggs = make([]extractor, len(s.Items))
	}
	for i, it := range s.Items {
		cs.proj[i] = compileProjector(it)
		if cs.hasAgg {
			ext, err := compileExtractor(it)
			if err != nil {
				return cs, err
			}
			cs.aggs[i] = ext
		}
	}
	return cs, nil
}

// compileProjector binds a select item to its tuple field once.
func compileProjector(it SelectItem) projector {
	switch it.Col {
	case ColTimestamp:
		return func(in telemetry.Info) Cell { return intCell(in.Timestamp) }
	case ColMetric:
		return func(in telemetry.Info) Cell { return floatCell(in.Value) }
	case ColSource:
		return func(in telemetry.Info) Cell { return strCell(in.Source.String()) }
	default:
		return func(telemetry.Info) Cell { return intCell(1) }
	}
}

// compileExtractor binds an aggregate item to its aggState field once,
// rejecting unsupported combinations at compile time.
func compileExtractor(it SelectItem) (extractor, error) {
	switch it.Agg {
	case AggNone:
		// Bare columns alongside aggregates take the newest entry's value
		// (the paper's query pairs MAX(Timestamp) with metric).
		proj := compileProjector(it)
		return func(st *aggState) Cell { return proj(st.last) }, nil
	case AggCount:
		return func(st *aggState) Cell { return intCell(st.s.Count) }, nil
	case AggMax:
		if it.Col == ColTimestamp {
			return func(st *aggState) Cell { return intCell(st.s.Last) }, nil
		}
		return func(st *aggState) Cell { return floatCell(st.s.Max) }, nil
	case AggMin:
		if it.Col == ColTimestamp {
			return func(st *aggState) Cell { return intCell(st.s.First) }, nil
		}
		return func(st *aggState) Cell { return floatCell(st.s.Min) }, nil
	case AggAvg, AggSum:
		if it.Col != ColMetric {
			return nil, fmt.Errorf("aqe: %s supports only the metric column", it.Agg)
		}
		if it.Agg == AggAvg {
			return func(st *aggState) Cell { return floatCell(st.s.Sum / float64(st.s.Count)) }, nil
		}
		return func(st *aggState) Cell { return floatCell(st.s.Sum) }, nil
	default:
		return nil, fmt.Errorf("aqe: unsupported aggregate %v", it.Agg)
	}
}

// rowFromProj renders one row through compiled projectors.
func rowFromProj(proj []projector, in telemetry.Info) []Cell {
	row := make([]Cell, len(proj))
	for i, p := range proj {
		row[i] = p(in)
	}
	return row
}
