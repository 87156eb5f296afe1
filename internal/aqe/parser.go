package aqe

import (
	"strconv"
	"strings"
)

// AggKind is an aggregate function in the select list.
type AggKind int

// Aggregates.
const (
	AggNone AggKind = iota
	AggMax
	AggMin
	AggAvg
	AggSum
	AggCount
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggAvg:
		return "AVG"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	default:
		return ""
	}
}

// ColKind is a column reference.
type ColKind int

// Columns of every SCoRe stream: the Information tuple
// (timestamp, fact/insight value, predicted/measured).
const (
	ColTimestamp ColKind = iota
	ColMetric            // the value
	ColSource            // 0 measured, 1 predicted
	ColStar              // only under COUNT(*)
)

// String names the column.
func (c ColKind) String() string {
	switch c {
	case ColTimestamp:
		return "Timestamp"
	case ColMetric:
		return "metric"
	case ColSource:
		return "source"
	case ColStar:
		return "*"
	default:
		return "?"
	}
}

// SelectItem is one entry in a select list.
type SelectItem struct {
	Agg AggKind
	Col ColKind
}

// Label renders the item as a result column header.
func (s SelectItem) Label() string {
	if s.Agg == AggNone {
		return s.Col.String()
	}
	return s.Agg.String() + "(" + s.Col.String() + ")"
}

// TimeRange is an inclusive timestamp filter.
type TimeRange struct {
	From, To int64
}

// OrderBy describes an ORDER BY Timestamp clause.
type OrderBy struct {
	Desc bool
}

// SelectStmt is one branch of a UNION query.
type SelectStmt struct {
	Items []SelectItem
	Table string
	Where *TimeRange
	// Order, if non-nil, sorts the branch's rows by Timestamp.
	Order *OrderBy
	// Limit caps the branch's row count; 0 means unlimited.
	Limit int

	args branchArgs // which literal of the text set Where and Limit
}

// argRef names the literal a bound was read from: the lit-th number of the
// text (1-based; 0 means none) plus adj — '>' is +1, '<' is -1.
type argRef struct {
	lit int
	adj int64
}

// branchArgs is what a cached plan needs to serve another text of the same
// shape: where each of the branch's three numbers comes from.
type branchArgs struct {
	from, to, limit argRef
}

// Query is a parsed UNION of SELECT statements; the number of branches is the
// query complexity on the x-axis of Fig. 12b.
type Query struct {
	Selects []SelectStmt
}

// Parse compiles the query text.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	for {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		q.Selects = append(q.Selects, sel)
		if isKeyword(p.peek(), "UNION") {
			p.next()
			// Accept UNION ALL as a synonym.
			if isKeyword(p.peek(), "ALL") {
				p.next()
			}
			continue
		}
		break
	}
	if p.peek().kind != tokEOF {
		return nil, &SyntaxError{Pos: p.peek().pos, Msg: "trailing input after query"}
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	lits int // number tokens consumed so far
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	if t.kind == tokNumber {
		p.lits++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !isKeyword(t, kw) {
		return &SyntaxError{Pos: t.pos, Msg: "expected " + kw}
	}
	return nil
}

func (p *parser) parseSelect() (SelectStmt, error) {
	var s SelectStmt
	if err := p.expectKeyword("SELECT"); err != nil {
		return s, err
	}
	for {
		item, err := p.parseItem()
		if err != nil {
			return s, err
		}
		s.Items = append(s.Items, item)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return s, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return s, &SyntaxError{Pos: tbl.pos, Msg: "expected table name"}
	}
	s.Table = tbl.text
	if isKeyword(p.peek(), "WHERE") {
		p.next()
		w, err := p.parseWhere(&s.args)
		if err != nil {
			return s, err
		}
		s.Where = w
	}
	if isKeyword(p.peek(), "ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return s, err
		}
		col := p.next()
		if !isKeyword(col, "Timestamp") {
			return s, &SyntaxError{Pos: col.pos, Msg: "ORDER BY supports only Timestamp"}
		}
		o := &OrderBy{}
		if isKeyword(p.peek(), "DESC") {
			p.next()
			o.Desc = true
		} else if isKeyword(p.peek(), "ASC") {
			p.next()
		}
		s.Order = o
	}
	if isKeyword(p.peek(), "LIMIT") {
		p.next()
		pos := p.peek().pos
		n, err := p.parseNumber()
		if err != nil {
			return s, err
		}
		if n < 1 {
			return s, &SyntaxError{Pos: pos, Msg: "LIMIT must be positive"}
		}
		s.Limit, s.args.limit = int(n), argRef{lit: p.lits}
	}
	return s, nil
}

func (p *parser) parseItem() (SelectItem, error) {
	t := p.next()
	if t.kind != tokIdent {
		return SelectItem{}, &SyntaxError{Pos: t.pos, Msg: "expected column or aggregate"}
	}
	agg := AggNone
	switch strings.ToUpper(t.text) {
	case "MAX":
		agg = AggMax
	case "MIN":
		agg = AggMin
	case "AVG":
		agg = AggAvg
	case "SUM":
		agg = AggSum
	case "COUNT":
		agg = AggCount
	}
	if agg != AggNone && p.peek().kind == tokLParen {
		p.next()
		col, err := p.parseCol(agg == AggCount)
		if err != nil {
			return SelectItem{}, err
		}
		if t := p.next(); t.kind != tokRParen {
			return SelectItem{}, &SyntaxError{Pos: t.pos, Msg: "expected )"}
		}
		return SelectItem{Agg: agg, Col: col}, nil
	}
	// Bare column.
	col, err := colByName(t)
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parseCol(allowStar bool) (ColKind, error) {
	t := p.next()
	if allowStar && t.kind == tokStar {
		return ColStar, nil
	}
	if t.kind != tokIdent {
		return 0, &SyntaxError{Pos: t.pos, Msg: "expected column"}
	}
	return colByName(t)
}

func colByName(t token) (ColKind, error) {
	switch strings.ToLower(t.text) {
	case "timestamp":
		return ColTimestamp, nil
	case "metric", "value":
		return ColMetric, nil
	case "source":
		return ColSource, nil
	default:
		return 0, &SyntaxError{Pos: t.pos, Msg: "unknown column " + t.text}
	}
}

// parseWhere accepts
//
//	Timestamp BETWEEN a AND b
//	Timestamp >= a [AND Timestamp <= b]
//	Timestamp <= b [AND Timestamp >= a]
func (p *parser) parseWhere(a *branchArgs) (*TimeRange, error) {
	w := &TimeRange{From: -1 << 62, To: 1 << 62}
	if err := p.parseCond(w, a); err != nil {
		return nil, err
	}
	if isKeyword(p.peek(), "AND") {
		p.next()
		if err := p.parseCond(w, a); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (p *parser) parseCond(w *TimeRange, a *branchArgs) error {
	t := p.next()
	if !isKeyword(t, "Timestamp") {
		return &SyntaxError{Pos: t.pos, Msg: "WHERE supports only Timestamp conditions"}
	}
	op := p.next()
	if isKeyword(op, "BETWEEN") {
		lo, err := p.parseNumber()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		hi, err := p.parseNumber()
		if err != nil {
			return err
		}
		w.From, w.To = lo, hi
		a.from, a.to = argRef{lit: p.lits - 1}, argRef{lit: p.lits}
		return nil
	}
	if op.kind != tokOp {
		return &SyntaxError{Pos: op.pos, Msg: "expected comparison or BETWEEN"}
	}
	n, err := p.parseNumber()
	if err != nil {
		return err
	}
	lit := p.lits
	switch op.text {
	case ">=":
		w.From, a.from = n, argRef{lit, 0}
	case ">":
		w.From, a.from = n+1, argRef{lit, 1}
	case "<=":
		w.To, a.to = n, argRef{lit, 0}
	case "<":
		w.To, a.to = n-1, argRef{lit, -1}
	case "=":
		w.From, w.To = n, n
		a.from, a.to = argRef{lit, 0}, argRef{lit, 0}
	default:
		return &SyntaxError{Pos: op.pos, Msg: "unsupported operator " + op.text}
	}
	return nil
}

func (p *parser) parseNumber() (int64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, &SyntaxError{Pos: t.pos, Msg: "expected number"}
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, &SyntaxError{Pos: t.pos, Msg: "bad number " + t.text}
	}
	return v, nil
}
