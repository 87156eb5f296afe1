package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/score"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func sample() *Trace {
	return FromSeries("node1.nvme0.capacity", time.Second, []float64{100, 99.5, 99, 98})
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric != tr.Metric || got.Tick != tr.Tick || len(got.Samples) != len(tr.Samples) {
		t.Fatalf("got=%+v", got)
	}
	for i := range tr.Samples {
		if got.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d: %f != %f", i, got.Samples[i], tr.Samples[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			// The CSV format is plain %g; weed out NaN/Inf which have no
			// round-trippable text form in this format.
			if v != v || v > 1e300 || v < -1e300 {
				vals[i] = 0
			}
		}
		tr := FromSeries("m", 5*time.Second, vals)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Samples) != len(vals) {
			return false
		}
		for i := range vals {
			if got.Samples[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hacc.trace")
	tr := FromSeries("cap", time.Second, workloads.HACCRegular(time.Minute, 1e9))
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration() != time.Minute {
		t.Fatalf("duration=%v", got.Duration())
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "ghost")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n1\n",
		"metric,m,tick,xyz\n1\n",
		"metric,m,tick,-1s\n1\n",
		"metric,m,tick,1s\nnot-a-number\n",
		"metric,m,tick,1s\n", // no samples
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err=%v", i, err)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	got, err := Read(strings.NewReader("metric,m,tick,1s\n1\n\n2\n"))
	if err != nil || len(got.Samples) != 2 {
		t.Fatalf("got=%+v err=%v", got, err)
	}
}

func TestHookReplay(t *testing.T) {
	tr := sample()
	h, second := tr.Hook(), tr.Hook()
	if h.Metric() != tr.Metric {
		t.Fatal("metric mismatch")
	}
	for i, want := range tr.Samples {
		v, err := h.Poll()
		if err != nil || v != want {
			t.Fatalf("poll %d: %f err=%v", i, v, err)
		}
	}
	// The hook owns a copy; mutating the trace must not affect it.
	tr.Samples[0] = -1
	if v, _ := second.Poll(); v != 100 {
		t.Fatalf("hook aliased samples: %f", v)
	}
}

func TestCapture(t *testing.T) {
	i := 0
	hook := score.HookFunc{ID: telemetry.MetricID("counter"), Fn: func() (float64, error) {
		i++
		return float64(i), nil
	}}
	tr, err := Capture(hook, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 5 || tr.Samples[4] != 5 || tr.Metric != "counter" {
		t.Fatalf("tr=%+v", tr)
	}
	if _, err := Capture(hook, 0, time.Second); err == nil {
		t.Fatal("zero samples accepted")
	}
	failing := score.HookFunc{ID: "f", Fn: func() (float64, error) { return 0, errors.New("nope") }}
	if _, err := Capture(failing, 3, time.Second); err == nil {
		t.Fatal("failing hook accepted")
	}
}
