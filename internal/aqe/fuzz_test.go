package aqe

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/score"
)

// fuzzResolver rejects every table: Prepare never executes, so resolution is
// irrelevant — the fuzz target exercises only the lexer, parser and planner.
type fuzzResolver struct{}

func (fuzzResolver) Resolve(string) (score.Executor, error) {
	return nil, errors.New("aqe: fuzz resolver has no tables")
}

// FuzzPrepare feeds arbitrary query text to the full parse+plan path. The
// contract: never panic, every rejection is a typed *SyntaxError (parse
// errors carry a position) or an "aqe:"-prefixed planner error — never an
// untyped internal error — and the shape cache is invisible: an engine that
// has cached every shape it has seen rejects exactly what a cacheless one
// does, in the same words. (FuzzShapeOf checks the normaliser itself.)
func FuzzPrepare(f *testing.F) {
	f.Add("SELECT COUNT(*) FROM node3.nvme0.capacity")
	f.Add("SELECT AVG(metric), MIN(Timestamp) FROM t WHERE Timestamp >= 5 AND Timestamp < 100")
	f.Add("SELECT SUM(metric) FROM t ORDER BY Timestamp DESC LIMIT 10")
	f.Add("select max(metric) from t")
	f.Add("SELECT COUNT(* FROM")          // unbalanced
	f.Add("SELECT MEDIAN(metric) FROM t") // unsupported aggregate
	f.Add("\x00\xff\xfe")                 // binary garbage
	f.Add(strings.Repeat("(", 1024))      // deep nesting
	f.Add("SELECT " + strings.Repeat("COUNT(*),", 100) + "COUNT(*) FROM t")

	f.Add("SELECT metric FROM t LIMIT 3")
	f.Add("SELECT metric FROM t LIMIT 0")
	f.Add("SELECT metric FROM t LIMIT ?")

	e, cold := NewEngine(fuzzResolver{}), uncached(fuzzResolver{})
	f.Fuzz(func(t *testing.T, src string) {
		plan, err := e.Prepare(src)
		if _, cerr := cold.Prepare(src); (err == nil) != (cerr == nil) || (err != nil && err.Error() != cerr.Error()) {
			t.Fatalf("Prepare(%q): cached engine says %v, cacheless %v", src, err, cerr)
		}
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) && !strings.HasPrefix(err.Error(), "aqe:") {
				t.Fatalf("Prepare(%q) returned untyped error %T: %v", src, err, err)
			}
			if plan != nil {
				t.Fatalf("Prepare(%q) returned both a plan and error %v", src, err)
			}
			return
		}
		if plan == nil {
			t.Fatalf("Prepare(%q) returned neither plan nor error", src)
		}
	})
}
