package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delphi"
)

// programmaticOnly lists the core.Config fields that deliberately have no
// apollod flag. Most carry Go values (a clock, a registry, a tuning struct)
// that only a program embedding the service sets; DelphiBatch is deprecated
// and ignored, and a flag would only advertise a knob that does nothing.
var programmaticOnly = map[string]bool{
	"Clock":       true,
	"Obs":         true,
	"Adaptive":    true,
	"DelphiBatch": true,
}

// TestFlagsCoverConfig parses a command line that sets every flag bindFlags
// registers and fails on any core.Config field left at its zero value that is
// not listed as programmatic-only — so a Config field added without a flag
// (or a list entry) fails here, as does a flag added without a value below.
func TestFlagsCoverConfig(t *testing.T) {
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 1, SeriesPerFeature: 1, SeriesLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{
		"mode":                  "entropy",
		"delphi":                modelPath,
		"delphi-registry":       "/var/lib/apollo/models",
		"delphi-retrain":        "5m",
		"archive-dir":           "/var/lib/apollo/archive",
		"retention":             "raw=15m,10s=2h,1m=24h",
		"compact-interval":      "30s",
		"archive-segment-bytes": "65536",
		"node-id":               "n0",
		"peers":                 "n1=127.0.0.1:7071,n2=127.0.0.1:7072",
		"replicas":              "3",
		"lease-ttl":             "2s",
		"replica-lag-max":       "128",
		"stream-retention":      "1024",
		"history-size":          "512",
		"base-tick":             "500ms",
		"gateway-addr":          "127.0.0.1:7181",
		"gateway-tokens":        "s3cret=alice",
		"gateway-rate":          "50",
		"gateway-burst":         "10",
		"gateway-queue":         "256",
	}

	var cfg core.Config
	fs := flag.NewFlagSet("apollod", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs, &cfg)
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		v, ok := values[f.Name]
		if !ok {
			t.Errorf("flag -%s has no value in this test: add one", f.Name)
		}
		args = append(args, "-"+f.Name+"="+v)
	})
	if len(args) != len(values) {
		t.Errorf("test sets %d flags, bindFlags registers %d", len(values), len(args))
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := checkFlags(&cfg); err != nil {
		t.Fatalf("a consistent full command line was rejected: %v", err)
	}

	rv := reflect.ValueOf(cfg)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if rv.Field(i).IsZero() != programmaticOnly[name] {
			t.Errorf("Config.%s: zero=%v after setting every flag, programmatic-only=%v — bind a flag in bindFlags or list the field in programmaticOnly",
				name, rv.Field(i).IsZero(), programmaticOnly[name])
		}
	}
	if cfg.Mode != core.IntervalEntropy || cfg.Peers["n2"] != "127.0.0.1:7072" ||
		cfg.Gateway.Tokens["s3cret"] != "alice" || cfg.ArchiveRetention.Raw != 15*time.Minute {
		t.Errorf("parsed values did not land: %+v", cfg)
	}
}

// TestFlagDefaultsAndChecks pins the defaults a bare command line yields and
// the cross-flag rules.
func TestFlagDefaultsAndChecks(t *testing.T) {
	parse := func(args ...string) (core.Config, error) {
		var cfg core.Config
		fs := flag.NewFlagSet("apollod", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			return cfg, err
		}
		return cfg, checkFlags(&cfg)
	}
	cfg, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Config{Mode: core.IntervalComplexAIMD, BaseTick: time.Second}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("defaults = %+v, want %+v", cfg, want)
	}
	for _, tc := range []struct{ args, wantErr string }{
		{"-mode=aimd", "unknown interval mode"},
		{"-peers=n1", "want id=addr"},
		{"-gateway-addr=:0 -gateway-tokens=tok", "want token=principal"},
		{"-retention=raw", "retention"},
		{"-delphi=/nonexistent/model.json", "loading delphi model"},
		{"-peers=n1=127.0.0.1:1", "-peers requires -node-id"},
		{"-retention=raw=1h", "require -archive-dir"},
		{"-compact-interval=1m", "require -archive-dir"},
		{"-archive-segment-bytes=65536", "require -archive-dir"},
		{"-delphi-retrain=1m", "-delphi-retrain requires"},
		{"-gateway-queue=8", "require -gateway-addr"},
	} {
		if _, err := parse(strings.Fields(tc.args)...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: err = %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
	if _, err := parse("-delphi-registry=/tmp/r", "-delphi-retrain=1m"); err != nil {
		t.Errorf("registry-only delphi flags rejected: %v", err)
	}
}
