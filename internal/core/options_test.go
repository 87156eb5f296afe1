package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/archive"
	"repro/internal/delphi"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
)

// TestOptionsCoverConfig applies every With* option and checks (a) it sets
// exactly the field it names, and (b) the table covers every Config field —
// so adding a Config field without its option fails this test.
func TestOptionsCoverConfig(t *testing.T) {
	clk := sim.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	model := &delphi.Model{}
	table := []struct {
		field string
		opt   Option
		want  any
	}{
		{"Clock", WithClock(clk), clk},
		{"Retention", WithStreamRetention(512), 512},
		{"Shards", WithShards(4), 4},
		{"Mode", WithMode(IntervalComplexAIMD), IntervalComplexAIMD},
		{"Adaptive", WithAdaptive(adaptive.Config{Initial: time.Minute}), adaptive.Config{Initial: time.Minute}},
		{"Delphi", WithDelphi(model), model},
		{"DelphiBatch", WithDelphiBatch(8), 8},
		{"DelphiRegistry", WithDelphiRegistry("/tmp/reg"), "/tmp/reg"},
		{"DelphiRetrain", WithDelphiRetrain(time.Minute), time.Minute},
		{"DelphiDrift", WithDelphiDrift(delphi.DriftConfig{Threshold: 2}), delphi.DriftConfig{Threshold: 2}},
		{"BaseTick", WithBaseTick(2 * time.Second), 2 * time.Second},
		{"ArchiveDir", WithArchiveDir("/tmp/a"), "/tmp/a"},
		{"ArchiveRetention", WithArchiveRetention(archive.Retention{Raw: time.Hour}), archive.Retention{Raw: time.Hour}},
		{"CompactInterval", WithCompactInterval(time.Minute), time.Minute},
		{"HistorySize", WithHistorySize(128), 128},
		{"PlanCache", WithPlanCache(64), 64},
		{"Obs", WithObs(reg), reg},
		{"NodeID", WithNodeID("n1"), "n1"},
		{"Peers", WithPeers(map[string]string{"n2": "a:1"}), map[string]string{"n2": "a:1"}},
		{"Replicas", WithReplicas(3), 3},
		{"LeaseTTL", WithLeaseTTL(time.Second), time.Second},
		{"ReplicaLagMax", WithReplicaLagMax(uint64(99)), uint64(99)},
		{"GatewayAddr", WithGatewayAddr("127.0.0.1:0"), "127.0.0.1:0"},
		{"Gateway", WithGateway(gateway.Config{Rate: 7}), gateway.Config{Rate: 7}},
	}

	covered := map[string]bool{}
	for _, tc := range table {
		var cfg Config
		tc.opt(&cfg)
		got := reflect.ValueOf(cfg).FieldByName(tc.field)
		if !got.IsValid() {
			t.Errorf("option table names unknown Config field %q", tc.field)
			continue
		}
		if !reflect.DeepEqual(got.Interface(), reflect.ValueOf(tc.want).Convert(got.Type()).Interface()) {
			t.Errorf("With* for %s set %v, want %v", tc.field, got.Interface(), tc.want)
		}
		// The option must not touch any other field.
		zero := Config{}
		rz := reflect.ValueOf(&zero).Elem()
		rz.FieldByName(tc.field).Set(got)
		if !reflect.DeepEqual(cfg, zero) {
			t.Errorf("option for %s modified more than its field", tc.field)
		}
		if covered[tc.field] {
			t.Errorf("field %s appears twice in the table", tc.field)
		}
		covered[tc.field] = true
	}

	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; !covered[name] {
			t.Errorf("Config field %s has no With* option (add one and extend this table)", name)
		}
	}
}

// TestNewWith checks options reach the built service.
func TestNewWith(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewWith(WithObs(reg), WithMode(IntervalFixed))
	defer svc.Stop()
	if svc.Obs() != reg {
		t.Fatal("WithObs did not reach the service")
	}
}

// TestWithMetricRetention checks the per-metric option reaches the vertex
// config.
func TestWithMetricRetention(t *testing.T) {
	var fc score.FactConfig
	r := archive.Retention{Raw: time.Hour}
	WithMetricRetention(r)(&fc)
	if fc.Retention == nil || *fc.Retention != r {
		t.Fatalf("Retention = %+v, want %+v", fc.Retention, r)
	}
}
