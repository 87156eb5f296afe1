package main

import "repro/bench/result"

// Constants of the benchmark (not flags): a later change is compared against
// numbers taken with exactly these.
const (
	freshLimitMS   = 10 // a measured tuple older than this at its subscriber is a miss
	defaultSeconds = 24 // measured window; BENCHMARK.json run_seconds
	warmupSeconds  = 2
	setupRepeats   = 5 // set-ups per run; setup_s is their median
)

// endToEnd is what a user of the pipeline sees. Every metric is defined on
// every workload (the driver gates each pairing), so numbers that exist on
// one workload only (repl_ktps, query_kqps, query_p50_ms, cpu_us_per_frame)
// are per-layer rows and reach the gate through cpu_us_per_tuple. Freshness
// percentiles are per-layer too (path.*): the in-process median flips between
// two scheduler regimes from run to run, so no bound on it would hold;
// fresh_ok_ratio is the freshness gate.
//
// The bounds are what this shared 2-vCPU machine supports. Every load is
// paced, so work_kops repeats within 1 % and a fall of 5 % means the program
// no longer keeps up. CPU per tuple, counted against the yardstick, spreads
// 2-8 % of its median over ten seeds (as measured, 4-70 %, depending on what
// the host's other guests do that hour); a tighter bound would reject
// unchanged code.
var endToEnd = []result.MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_tuple", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "fresh_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "work_kops", Unit: "k/s", Better: "higher", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer is one module's share of the work, named layer.metric after the
// repo's packages. Layers that a workload leaves idle report 0 there, which
// is itself a prediction: an idle layer's rows must not move.
var perLayer = []result.MetricSpec{
	{Name: "gen.polls", Unit: "count", Better: "higher"},
	{Name: "gen.achieved_rate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gen.poll_gap_over_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.poll_gap_over_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.queries_sent", Unit: "count", Better: "higher"},
	{Name: "gen.flood_sent", Unit: "count", Better: "higher"},

	{Name: "score.fact_build_ns_per_poll", Unit: "ns", Better: "lower"},
	{Name: "score.fact_publish_ns_per_poll", Unit: "ns", Better: "lower"},
	{Name: "score.fact_other_ns_per_poll", Unit: "ns", Better: "lower"},
	{Name: "score.insight_build_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "score.insight_publish_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "score.tuples_in", Unit: "count", Better: "higher"},
	{Name: "score.tuples_out", Unit: "count", Better: "higher"},
	{Name: "score.suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "score.errors", Unit: "count", Better: "lower"},
	{Name: "score.backlog_max", Unit: "count", Better: "lower"},
	{Name: "score.flush_p50_us", Unit: "us", Better: "lower"},
	{Name: "score.insight_hop_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "delphi.fill_ns_per_pred", Unit: "ns", Better: "lower"},
	{Name: "delphi.predictions", Unit: "count", Better: "higher"},
	{Name: "delphi.fallback_metrics", Unit: "count", Better: "lower"},
	{Name: "delphi.sweep_p50_us", Unit: "us", Better: "lower"},
	{Name: "delphi.sweep_ns_per_pred", Unit: "ns", Better: "lower"},
	{Name: "delphi.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "delphi.predict_ticks_ns_per_pred", Unit: "ns", Better: "lower"},
	{Name: "delphi.allocs_per_poll", Unit: "count", Better: "lower"},

	{Name: "telemetry.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.bytes_per_tuple", Unit: "B", Better: "lower"},

	{Name: "broker.publish_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "broker.consume_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "broker.allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "broker.bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "broker.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "broker.publish_bytes", Unit: "B", Better: "lower"},
	{Name: "broker.evicted", Unit: "count", Better: "lower"},
	{Name: "broker.consume_lag_max", Unit: "count", Better: "lower"},

	{Name: "tcp.publish_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "tcp.tx_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "tcp.rx_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "tcp.coalesce_batch_mean", Unit: "count", Better: "higher"},
	{Name: "tcp.coalesce_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "tcp.retries", Unit: "count", Better: "lower"},
	{Name: "tcp.reconnects", Unit: "count", Better: "lower"},
	{Name: "tcp.sub_resumes", Unit: "count", Better: "lower"},

	{Name: "fabric.repl_ktps", Unit: "k/s", Better: "higher"},
	{Name: "fabric.quorum_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "fabric.quorum_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "fabric.replicate_entries", Unit: "count", Better: "higher"},
	{Name: "fabric.replicate_errors", Unit: "count", Better: "lower"},
	{Name: "fabric.not_leader", Unit: "count", Better: "lower"},
	{Name: "fabric.redirects", Unit: "count", Better: "lower"},
	{Name: "fabric.replica_lag_max", Unit: "count", Better: "lower"},
	{Name: "fabric.failovers", Unit: "count", Better: "lower"},
	{Name: "fabric.leader_skew", Unit: "ratio", Better: "lower"},

	{Name: "queue.append_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.range_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "queue.evictions", Unit: "count", Better: "lower"},
	{Name: "queue.drops", Unit: "count", Better: "lower"},

	{Name: "archive.append_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "archive.range_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "archive.appends", Unit: "count", Better: "higher"},
	{Name: "archive.disk_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "archive.read_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "archive.segments_skipped", Unit: "count", Better: "higher"},
	{Name: "archive.compaction_runs", Unit: "count", Better: "higher"},
	{Name: "archive.rotations", Unit: "count", Better: "lower"},

	{Name: "aqe.query_kqps", Unit: "k/s", Better: "higher"},
	{Name: "aqe.prepare_ns", Unit: "ns", Better: "lower"},
	{Name: "aqe.exec_latest_ns", Unit: "ns", Better: "lower"},
	{Name: "aqe.exec_window_ns", Unit: "ns", Better: "lower"},
	{Name: "aqe.exec_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "aqe.exec_union_ns", Unit: "ns", Better: "lower"},
	{Name: "aqe.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "aqe.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "aqe.latest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "aqe.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "aqe.deep_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "aqe.union_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "gateway.cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "gateway.query_overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.frames_sent", Unit: "count", Better: "higher"},
	{Name: "gateway.evictions", Unit: "count", Better: "lower"},
	{Name: "gateway.rate_limited", Unit: "count", Better: "lower"},
	{Name: "gateway.drain_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "gateway.socket_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "gateway.heap_kb_per_sub", Unit: "KB", Better: "lower"},
	{Name: "gateway.goroutines_per_sub", Unit: "count", Better: "lower"},
	{Name: "gateway.sse_fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.ws_fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.attach_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "path.fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "path.fresh_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "path.fresh_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "path.fresh_max_ms", Unit: "ms", Better: "lower"},
	{Name: "path.fresh_tail_pct", Unit: "pct", Better: "higher"},
	{Name: "path.fresh_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "path.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "path.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "path.backlog_end", Unit: "count", Better: "lower"},
	{Name: "path.samples", Unit: "count", Better: "higher"},
	{Name: "path.failed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "rt.allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "rt.alloc_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "rt.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.goroutines", Unit: "count", Better: "lower"},
	{Name: "rt.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "rt.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.ctx_switches_per_tuple", Unit: "count", Better: "lower"},
	{Name: "rt.cpu_us_per_tuple_raw", Unit: "us", Better: "lower"},
	{Name: "rt.yardstick_round_us", Unit: "us", Better: "lower"},

	{Name: "obs.instruments", Unit: "count", Better: "lower"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measured is one number with the count of samples behind it.
type measured struct {
	value   float64
	samples int
}

// table collects a run's numbers by metric name.
type table map[string]measured

func (t table) set(name string, v float64, samples int) { t[name] = measured{v, samples} }

// ratio sets name to num/den, or 0 with no samples when den is 0.
func (t table) ratio(name string, num, den float64) {
	if den == 0 {
		t.set(name, 0, 0)
		return
	}
	t.set(name, num/den, int(den))
}

// rows renders the table in the order of defs; metrics a workload had
// nothing to measure for are 0 with 0 samples.
func (t table) rows(workload string, defs []result.MetricSpec) []result.Row {
	out := make([]result.Row, 0, len(defs))
	for _, d := range defs {
		m := t[d.Name]
		out = append(out, result.Row{
			Workload: workload, Layer: result.Layer(d.Name), Metric: d.Name,
			Value: m.value, Unit: d.Unit, Samples: m.samples,
		})
	}
	return out
}
