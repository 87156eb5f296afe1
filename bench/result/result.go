// Package result is the one schema every run of the pipeline benchmark
// writes and the comparison rule bench/compare and `-repeat` apply to it:
// one row per (workload, layer, metric) with value, unit and sample count,
// plus the environment the numbers were taken in.
package result

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Env is the fingerprint of the machine and settings a file was measured
// with; two files compare meaningfully only when these agree.
type Env struct {
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	Seed         int64  `json:"seed"`
	WindowSec    int    `json:"window_seconds"`
	WarmupSec    int    `json:"warmup_seconds"`
	FreshLimitMS int    `json:"fresh_limit_ms"`
	Traced       bool   `json:"traced"`
}

// Row is one measured number.
type Row struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
}

// File is one result file. Flags name conditions that make a run suspect
// without failing it (offered rate not reached, busy host).
type File struct {
	Env   Env      `json:"env"`
	Rows  []Row    `json:"rows"`
	Flags []string `json:"flags,omitempty"`
}

// Layer returns the layer a metric name belongs to: the part before the
// first dot, or "e2e" for the undotted end-to-end names.
func Layer(metric string) string {
	if i := strings.IndexByte(metric, '.'); i > 0 {
		return metric[:i]
	}
	return "e2e"
}

// Write stores f as indented JSON.
func (f *File) Write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Read loads a result file.
func Read(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Value returns the row for (workload, metric).
func (f *File) Value(workload, metric string) (Row, bool) {
	for _, r := range f.Rows {
		if r.Workload == workload && r.Metric == metric {
			return r, true
		}
	}
	return Row{}, false
}

// MetricSpec is one metric entry of BENCHMARK.json; Bound is set on
// end-to-end metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec is one workload entry of BENCHMARK.json.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// NameRE is the shape every workload and metric name must have.
var NameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Worse returns by what share of base the value got worse (negative when it
// improved), given the metric's direction.
func Worse(m MetricSpec, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	d := (value - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// Verdict is the outcome of one (workload, metric) comparison.
type Verdict string

// Verdicts. Unresolved means the runs' own spread is wider than the bound,
// so neither "same" nor "worse" can be claimed.
const (
	OK         Verdict = "ok"
	Regression Verdict = "REGRESSION"
	Unresolved Verdict = "unresolved"
)

// Pair is one compared (workload, metric).
type Pair struct {
	Workload  string
	Metric    MetricSpec
	Base, New float64
	Ratio     float64 // New / Base
	Spread    float64 // widest own spread of the two sides, as a share of the median; 0 when single runs
	Verdict   Verdict
}

// Median returns the median of vs (0 for none).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max-min)/median of one side's repeated runs.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	if m := Median(vs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// Compare applies each end-to-end metric's bound to the medians of base and
// next (each one or more files of the same code) for every workload both
// sides measured.
func Compare(spec *Spec, base, next []*File) []Pair {
	var out []Pair
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			bv, nv := values(base, w.Name, m.Name), values(next, w.Name, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			p := Pair{Workload: w.Name, Metric: m, Base: Median(bv), New: Median(nv)}
			if p.Base != 0 {
				p.Ratio = p.New / p.Base
			}
			p.Spread = max(spread(bv), spread(nv))
			switch {
			case p.Spread > m.Bound:
				p.Verdict = Unresolved
			case Worse(m, p.Base, p.New) > m.Bound:
				p.Verdict = Regression
			default:
				p.Verdict = OK
			}
			out = append(out, p)
		}
	}
	return out
}

func values(files []*File, workload, metric string) []float64 {
	var vs []float64
	for _, f := range files {
		if r, ok := f.Value(workload, metric); ok {
			vs = append(vs, r.Value)
		}
	}
	return vs
}

// Regressed reports whether any pair is a regression.
func Regressed(pairs []Pair) bool {
	for _, p := range pairs {
		if p.Verdict == Regression {
			return true
		}
	}
	return false
}

// Format renders the comparison, one row per (workload, metric).
func Format(pairs []Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %-6s %12s %12s %7s %7s %7s  %s\n",
		"workload", "metric", "unit", "base", "new", "ratio", "bound", "spread", "verdict")
	for _, p := range pairs {
		fmt.Fprintf(&b, "%-14s %-18s %-6s %12.5g %12.5g %7.3f %7.3f %7.3f  %s\n",
			p.Workload, p.Metric.Name, p.Metric.Unit, p.Base, p.New, p.Ratio, p.Metric.Bound, p.Spread, p.Verdict)
	}
	return b.String()
}
