package result

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	f := &File{
		Env:   Env{Commit: "abc", GoVersion: "go1.24", NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", Seed: 7, WindowSec: 24, WarmupSec: 2, FreshLimitMS: 10},
		Rows:  []Row{{"w", "e2e", "setup_s", 0.25, "s", 3}, {"w", "gen", "gen.polls", 1200, "count", 16}},
		Flags: []string{"busy host"},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("read back %+v, wrote %+v", got, f)
	}
	if Layer("gen.polls") != "gen" || Layer("setup_s") != "e2e" {
		t.Error("Layer does not split at the first dot")
	}
}

func file(v float64) *File {
	return &File{Rows: []Row{{Workload: "w", Layer: "e2e", Metric: "lat", Value: v}, {Workload: "w", Layer: "e2e", Metric: "rate", Value: v}}}
}

func TestCompareAppliesBoundsAndDirection(t *testing.T) {
	spec := &Spec{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	verdicts := func(base, next []*File) (lat, rate Verdict) {
		p := Compare(spec, base, next)
		return p[0].Verdict, p[1].Verdict
	}
	// 20 % up: worse for a latency, better for a rate.
	if lat, rate := verdicts([]*File{file(100)}, []*File{file(120)}); lat != Regression || rate != OK {
		t.Errorf("+20%%: lat %s, rate %s; want REGRESSION, ok", lat, rate)
	}
	if lat, rate := verdicts([]*File{file(100)}, []*File{file(80)}); lat != OK || rate != Regression {
		t.Errorf("-20%%: lat %s, rate %s; want ok, REGRESSION", lat, rate)
	}
	if lat, _ := verdicts([]*File{file(100)}, []*File{file(105)}); lat != OK {
		t.Errorf("+5%% inside a 10%% bound: %s", lat)
	}
	// The base's own runs spread by 30 %: nothing can be claimed.
	if lat, _ := verdicts([]*File{file(90), file(100), file(120)}, []*File{file(130)}); lat != Unresolved {
		t.Errorf("spread wider than the bound: %s, want unresolved", lat)
	}
	pairs := Compare(spec, []*File{file(100)}, []*File{file(120)})
	if !Regressed(pairs) || !strings.Contains(Format(pairs), "REGRESSION") {
		t.Error("a regression is neither reported nor printed")
	}
}
