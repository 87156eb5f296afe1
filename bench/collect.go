package main

import (
	"fmt"
	"math"
	"repro/bench/result"
	"sort"
	"strings"
	"time"

	"repro/internal/score"
)

const mib = 1 << 20

// Fields of the vertices' anatomy counters, for statsDelta.
func statPolls(s score.StatsSnapshot) float64      { return float64(s.Polls) }
func statErrors(s score.StatsSnapshot) float64     { return float64(s.Errors) }
func statSuppressed(s score.StatsSnapshot) float64 { return float64(s.Suppressed) }
func statBuild(s score.StatsSnapshot) float64      { return float64(s.Build) }
func statPublish(s score.StatsSnapshot) float64    { return float64(s.Publish) }
func statOther(s score.StatsSnapshot) float64      { return float64(s.Other) }

// finish stops the load, lets the subscribers catch up, audits, runs the
// replay part of a traced run, and fills the outcome's tables.
func (m *measurement) finish(o *outcome) error {
	r, w := m.r, m.w
	traced := r.rec != nil
	t := o.layers

	// Direct engine calls come first: their time ranges are relative to now,
	// so ingest must still be running.
	var execNS [numKinds]float64
	var directLatestUS float64
	if traced && w.queries != nil {
		w.queries.halt()
		r.rec.on.Store(true)
		execNS = r.replayQueries(t, w.nodes[0].Engine(), w.metrics)
		directLatestUS = m.directLatest()
		r.rec.off()
	}
	w.queries.halt()
	w.sweeps.halt()
	// Quiesce before stopping (see gate): polls park in the hooks, publishes
	// in flight complete, and only then are the vertices stopped.
	w.gate.closed.Store(true)
	time.Sleep(3 * pollPeriod)
	w.drain(2 * time.Second)
	close(w.gate.release)
	for _, v := range w.facts {
		v.Stop()
	}
	if w.archiveDir != "" {
		m.archiveBytes = dirBytes(w.archiveDir)
	}
	for _, v := range w.insights {
		v.Stop()
	}
	w.drain(time.Second)
	tails := make(map[string]uint64)
	for _, s := range w.subs {
		tails[s.topic] = w.tail(s.topic)
	}
	if traced && w.gwAddr != "" {
		r.rec.on.Store(true)
		r.replayGateway(t, w.nodes[0].Gateway(), w.subs[0].topic, tails[w.subs[0].topic])
		r.rec.off()
	}
	for _, s := range w.subs {
		s.join()
	}
	final := w.snapshot()
	if err := m.audit(final, tails); err != nil {
		return err
	}

	P, W := m.paced, m.whole
	tuples := P.tuples()
	cpuUS := float64(P.cpu()) / 1e3
	frames := float64(P.to.frames - P.from.frames)
	fresh := poolFresh(w.subs, r.win.start.Load(), nil)

	// ---- end to end: medians over the seconds of the window ----------------
	e := o.e2e
	// A second's CPU time is counted in the CPU time of that second's
	// yardstick rounds (see yardstick.go): atNominal is what it would be on
	// a machine where a round takes yardstickNominal.
	measuredUS := func(a, b reading) float64 { return float64(b.cpu-a.cpu) / 1e3 }
	roundUS := func(a, b reading) float64 { return float64(b.yard-a.yard) / 1e3 }
	rounds := func(a, b reading) float64 { return float64(b.yardRounds - a.yardRounds) }
	atNominal := func(a, b reading) float64 {
		if roundUS(a, b) <= 0 {
			return measuredUS(a, b) // no round in this second: as measured
		}
		return measuredUS(a, b) * float64(yardstickNominal/time.Microsecond) * rounds(a, b) / roundUS(a, b)
	}
	busTuples := func(a, b reading) float64 { return float64(b.tuples - a.tuples) }
	perTuple := perSecond(m.pacedReadings, atNominal, busTuples)
	e.set("cpu_us_per_tuple", result.Median(perTuple), len(perTuple))
	e.set("fresh_ok_ratio", result.Median(fresh.secOK), len(fresh.secOK))
	e.set("live_heap_mb", (float64(m.heap)-float64(r.ownBytes))/mib, 1)
	var queriesOK, queriesSent, queriesFailed int
	var qms [numKinds][]float64
	if w.queries != nil {
		for _, qc := range w.queries.clients {
			queriesOK += qc.ok
			queriesSent += qc.sent
			queriesFailed += qc.failed
			for k := range qc.ms {
				for _, v := range qc.ms[k] {
					qms[k] = append(qms[k], float64(v))
				}
			}
		}
	}
	work := func(a, b reading) float64 { return float64(b.tuples - a.tuples) }
	switch {
	case w.queries != nil:
		work = func(a, b reading) float64 { return float64(b.answers - a.answers) }
	case w.gwAddr != "":
		work = func(a, b reading) float64 { return float64(b.frames - a.frames) }
	}
	kops := perSecond(m.pacedReadings, func(a, b reading) float64 { return work(a, b) / 1e3 }, seconds)
	e.set("work_kops", result.Median(kops), len(kops))

	// ---- failures ---------------------------------------------------------
	vertexErrors := statsDelta(W.from.facts, W.to.facts, statErrors) + statsDelta(W.from.insights, W.to.insights, statErrors)
	var polls float64
	for _, h := range w.hooks {
		polls += float64(h.polls.Load())
	}
	allPolls := statsDelta(P.from.facts, P.to.facts, statPolls)
	o.attempted = int(allPolls) + queriesSent + fresh.ms.n() + fresh.missing
	o.failed = int(vertexErrors) + queriesFailed + fresh.missing
	if w.flood != nil {
		o.attempted += int(w.flood.acked.Load()) + w.flood.failed
		o.failed += w.flood.failed
	}
	if w.probe != nil {
		o.attempted += len(w.probe.ackUS) + w.probe.failed
		o.failed += w.probe.failed
	}
	for _, s := range w.subs {
		if s.evicted {
			o.failed++
		}
	}

	// ---- guard rails: flagged, not failed ----------------------------------
	offered := float64(len(w.hooks)) * P.seconds() / pollPeriod.Seconds()
	if polls < 0.9*offered {
		o.flags = append(o.flags, fmt.Sprintf("offered rate not reached: %.0f of %.0f polls", polls, offered))
	}
	if stolen := P.to.stolen - P.from.stolen; stolen > 0.05*P.seconds()*float64(o.env.NumCPU) {
		o.flags = append(o.flags, fmt.Sprintf("busy host: the hypervisor withheld %.1f CPU-seconds of the window", stolen))
	}
	if w.queries != nil {
		late := 0
		for _, qc := range w.queries.clients {
			late += qc.late
		}
		if late*100 > queriesSent {
			o.flags = append(o.flags, fmt.Sprintf("query clients fell behind their schedule: %d of %d requests left more than %v late", late, queriesSent, queryLate))
		}
	}
	if !traced {
		return nil
	}

	// ---- per layer: replay --------------------------------------------------
	r.rec.on.Store(true)
	infos := capturedInfos(w.hooks)
	pubTotal := W.counter("stream_broker_publish_total", "")
	batches, batchEntries := W.hist("stream_broker_publish_batch_size", "")
	singles := pubTotal - batchEntries
	singlesPerBatch, batchSize := 0, 0
	if batches > 0 {
		singlesPerBatch, batchSize = int(math.Round(singles/batches)), int(math.Round(batchEntries/batches))
	}
	r.replayCommon(t, infos, singlesPerBatch, batchSize, w.historySize)
	if w.model != nil {
		r.replayDelphi(t, w.model, infos, w.ticks)
	}
	if w.archiveDir != "" {
		if dir, err := w.tmpDir(r, "replay"); err == nil {
			r.replayArchive(t, infos, dir)
		}
	}
	r.rec.off()

	// ---- per layer: counters and spans -------------------------------------
	m.genRows(t, polls, offered, queriesSent)
	m.scoreRows(t, vertexErrors)
	m.delphiRows(t)
	m.busRows(t, pubTotal, batches, singles)
	m.storeRows(t, final, len(qms[kindDeep]))
	// aqe and gateway
	hits, misses := W.counter("aqe_plan_cache_hits_total", ""), W.counter("aqe_plan_cache_misses_total", "")
	t.ratio("aqe.plan_cache_hit_ratio", hits, hits+misses)
	t.ratio("aqe.query_kqps", float64(queriesOK)/1e3, P.seconds())
	var allQ []float64
	for k := range qms {
		t.set("aqe."+kindNames[k]+"_p50_ms", result.Median(qms[k]), len(qms[k]))
		allQ = append(allQ, qms[k]...)
	}
	qd := newDist(allQ)
	t.set("path.query_p50_ms", qd.p(50), qd.n())
	if v, ok := qd.supported(99); ok {
		t.set("path.query_p99_ms", v, qd.n())
	}
	if directLatestUS > 0 && len(qms[kindLatest]) > 0 {
		t.set("gateway.query_overhead_p50_us", result.Median(qms[kindLatest])*1e3-directLatestUS, len(qms[kindLatest]))
	}
	t.set("gateway.frames_sent", W.counter("gateway_frames_sent_total", ""), 1)
	t.set("gateway.evictions", W.counter("gateway_evictions_total", ""), 1)
	t.set("gateway.rate_limited", W.counter("gateway_rate_limited_total", ""), 1)
	var attach []float64
	for _, s := range w.subs {
		if s.transport == "sse" || s.transport == "ws" {
			attach = append(attach, float64(s.attach)/1e6)
		}
	}
	t.set("gateway.attach_p50_ms", result.Median(attach), len(attach))
	for _, tr := range []string{"sse", "ws"} {
		f := poolFresh(w.subs, r.win.start.Load(), func(s *subscriber) bool { return s.transport == tr })
		t.set("gateway."+tr+"_fresh_p50_ms", f.ms.p(50), f.ms.n())
	}
	if w.gwAddr != "" {
		t.ratio("gateway.cpu_us_per_frame", cpuUS, frames)
		t.set("gateway.heap_kb_per_sub", w.heapPerSubKB, len(attach))
		t.set("gateway.goroutines_per_sub", w.goroutinesPerSub, len(attach))
		if drain := t["gateway.drain_ns_per_frame"]; drain.samples > 0 && frames > 0 {
			t.set("gateway.socket_us_per_frame", cpuUS/frames-drain.value/1e3, int(frames))
		}
	}

	// path, rt, obs, trace
	t.set("path.fresh_p50_ms", result.Median(fresh.secP50), len(fresh.secP50)) // median of the per-second medians
	for _, q := range []float64{90, 99} {
		if v, ok := fresh.ms.supported(q); ok {
			t.set(fmt.Sprintf("path.fresh_p%.0f_ms", q), v, fresh.ms.n())
		}
	}
	t.set("path.fresh_max_ms", fresh.ms.max(), fresh.ms.n())
	if q := tailPercentile(fresh.ms.n()); q > 0 {
		t.set("path.fresh_tail_pct", q, fresh.ms.n())
		t.set("path.fresh_tail_ms", fresh.ms.p(q), fresh.ms.n())
	}
	t.set("path.backlog_end", float64(P.to.backlog), 1)
	t.set("path.samples", float64(fresh.ms.n()), fresh.ms.n())
	t.ratio("path.failed_ratio", float64(o.failed), float64(o.attempted))

	t.ratio("rt.allocs_per_tuple", float64(P.to.mem.Mallocs-P.from.mem.Mallocs), tuples)
	t.ratio("rt.alloc_bytes_per_tuple", float64(P.to.mem.TotalAlloc-P.from.mem.TotalAlloc), tuples)
	t.ratio("rt.gc_cpu_share", P.to.gcCPU-P.from.gcCPU, P.cpu().Seconds())
	pauses := newDist(gcPauses(&W.from.mem, &W.to.mem))
	if v, ok := pauses.supported(99); ok {
		t.set("rt.gc_pause_p99_ms", v, pauses.n())
	} else {
		t.set("rt.gc_pause_p99_ms", pauses.max(), pauses.n()) // too few collections for a p99: the worst one
	}
	t.set("rt.goroutines", float64(m.goroutines), 1)
	t.set("rt.rss_mb", rssMB(), 1)
	t.ratio("rt.sys_cpu_share", float64(P.to.usage.sys-P.from.usage.sys), float64(P.cpu()))
	t.ratio("rt.ctx_switches_per_tuple", float64(P.to.usage.ctxSw-P.from.usage.ctxSw), tuples)
	raw := perSecond(m.pacedReadings, measuredUS, busTuples)
	t.set("rt.cpu_us_per_tuple_raw", result.Median(raw), len(raw))
	round := perSecond(m.pacedReadings, roundUS, rounds)
	t.set("rt.yardstick_round_us", result.Median(round), len(round))

	instruments := 0
	for _, s := range W.to.obs {
		instruments += len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	t.set("obs.instruments", float64(instruments), len(W.to.obs))
	t.set("obs.snapshot_ms", float64(W.to.obsTook)/1e6, 1)

	refTuples := m.ref.tuples()
	if refTuples > 0 && tuples > 0 {
		t.set("trace.overhead_ratio", (cpuUS/tuples)/(float64(m.ref.cpu())/1e3/refTuples), int(tuples))
	}
	t.set("trace.spans", float64(len(r.rec.spans)), 1)

	path, err := m.writeTrace(counterNames(W.to))
	if err != nil {
		return err
	}
	unit, units, per := "tuple", tuples, cpuUS/max(tuples, 1)
	if m.def.unit == "frame" {
		unit, units, per = "frame", frames, cpuUS/max(frames, 1)
	}
	o.budget = formatBudget(selfTimes(r.rec.spans), m.budgetLines(t, execNS, qms), unit, units, per) +
		fmt.Sprintf("trace: %d spans written to %s\n", len(r.rec.spans), path)
	return nil
}

// drain waits until every subscriber has what the bus holds for it.
func (w *world) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		behind := false
		for _, s := range w.subs {
			if s.position() < w.tail(s.topic) {
				behind = true
				break
			}
		}
		if !behind {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directLatest is the median of Service.Query on the latest texts, us: what
// the same SQL costs without HTTP in front of it.
func (m *measurement) directLatest() float64 {
	const reps = 2000
	svc := m.w.nodes[0]
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sql, _, _ := sqlFor(queryPick{kindLatest, i % m.w.metrics}, m.w.metrics, 0)
		start := time.Now()
		if _, err := svc.Query(sql); err == nil {
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	return result.Median(us)
}

func (m *measurement) genRows(t table, polls, offered float64, queriesSent int) {
	t.set("gen.polls", polls, len(m.w.hooks))
	t.ratio("gen.achieved_rate_ratio", polls, offered)
	var gaps []float64
	for _, h := range m.w.hooks {
		for _, g := range h.gaps {
			gaps = append(gaps, float64(g)/1e6)
		}
	}
	gd := newDist(gaps)
	t.set("gen.poll_gap_over_p50_ms", gd.p(50), gd.n())
	if v, ok := gd.supported(99); ok {
		t.set("gen.poll_gap_over_p99_ms", v, gd.n())
	}
	t.set("gen.queries_sent", float64(queriesSent), 1)
	if f := m.w.flood; f != nil {
		t.set("gen.flood_sent", float64(int(f.acked.Load())+f.failed), 1)
	}
}

func (m *measurement) scoreRows(t table, vertexErrors float64) {
	W := m.whole
	facts := func(f func(score.StatsSnapshot) float64) float64 { return statsDelta(W.from.facts, W.to.facts, f) }
	insights := func(f func(score.StatsSnapshot) float64) float64 {
		return statsDelta(W.from.insights, W.to.insights, f)
	}
	t.ratio("score.fact_build_ns_per_poll", facts(statBuild), facts(statPolls))
	t.ratio("score.fact_publish_ns_per_poll", facts(statPublish), facts(statPolls))
	t.ratio("score.fact_other_ns_per_poll", facts(statOther), facts(statPolls))
	t.ratio("score.insight_build_ns_per_entry", insights(statBuild)+insights(statOther), insights(statPolls))
	t.ratio("score.insight_publish_ns_per_entry", insights(statPublish), insights(statPolls))
	t.set("score.tuples_in", W.counter("score_tuples_in_total", ""), 1)
	t.set("score.tuples_out", W.tuples(), 1)
	t.ratio("score.suppressed_ratio", facts(statSuppressed), facts(statPolls))
	t.set("score.errors", vertexErrors, 1)
	t.set("score.backlog_max", float64(m.backlg), 1)
	if n, sum := W.hist("score_flush_seconds", ""); n > 0 {
		t.set("score.flush_p50_us", sum/n*1e6, int(n))
	}
	// The same probe sample seen after the Fact vertex and after the Max
	// insight behind it: the difference is the insight hop.
	if len(m.w.subs) == 2 && m.w.subs[0].probeEpoch != 0 {
		atInsight, atFact := m.w.subs[0], m.w.subs[1]
		factFresh := make(map[int64]int64, len(atFact.created))
		for i, c := range atFact.created {
			factFresh[c] = atFact.fresh[i]
		}
		var hops []float64
		for i, c := range atInsight.created {
			if f, ok := factFresh[c]; ok {
				hops = append(hops, float64(atInsight.fresh[i]-f)/1e6)
			}
		}
		t.set("score.insight_hop_p50_ms", result.Median(hops), len(hops))
	}
}

func (m *measurement) delphiRows(t table) {
	W := m.whole
	preds := W.counter("delphi_predictions_total", `metric="`)
	_, fillSec := W.hist("delphi_predict_seconds", `metric="`)
	t.ratio("delphi.fill_ns_per_pred", fillSec*1e9, preds)
	t.set("delphi.predictions", preds, 1)
	var fallback float64
	for _, s := range W.to.obs {
		for name, v := range s.Gauges {
			if matches(name, "delphi_fallback", "") {
				fallback += v
			}
		}
	}
	t.set("delphi.fallback_metrics", fallback, 1)
	if sw := m.w.sweeps; sw != nil {
		t.set("delphi.sweep_p50_us", result.Median(sw.us), len(sw.us))
		var total float64
		for _, us := range sw.us {
			total += us
		}
		t.ratio("delphi.sweep_ns_per_pred", total*1e3, float64(sw.preds))
	}
}

// busRows fills the broker, tcp and fabric layers.
func (m *measurement) busRows(t table, pubTotal, batches, singles float64) {
	w, W := m.w, m.whole
	t.ratio("broker.batch_size_mean", pubTotal, singles+batches)
	t.set("broker.publish_bytes", W.counter("stream_broker_publish_bytes_total", ""), 1)
	t.set("broker.evicted", W.counter("stream_broker_evicted_total", ""), 1)
	// The lag histogram has decade buckets: the upper bound of the highest
	// one that filled is what can be said about the maximum.
	var lagMax float64
	for i, s := range W.to.obs {
		to, from := s.Histograms["stream_broker_consume_lag"], W.from.obs[i].Histograms["stream_broker_consume_lag"]
		for b := range to.Buckets {
			prevTo, prevFrom := uint64(0), uint64(0)
			if b > 0 {
				prevTo, prevFrom = to.Buckets[b-1].Count, from.Buckets[b-1].Count
			}
			if to.Buckets[b].Count-prevTo > from.Buckets[b].Count-prevFrom && !math.IsInf(to.Buckets[b].UpperBound, 1) {
				lagMax = max(lagMax, to.Buckets[b].UpperBound)
			}
		}
	}
	t.set("broker.consume_lag_max", lagMax, 1)

	if w.clientObs == nil {
		return
	}
	t.set("tcp.retries", W.clientCounter("stream_client_retries_total"), 1)
	t.set("tcp.reconnects", W.clientCounter("stream_client_reconnects_total"), 1)
	t.set("tcp.sub_resumes", W.clientCounter("stream_sub_resumes_total"), 1)
	t.set("fabric.redirects", W.clientCounter("stream_client_redirects_total"), 1)
	if p := w.probe; p != nil {
		t.set("tcp.publish_rtt_p50_us", result.Median(p.rttUS), len(p.rttUS))
		ack := newDist(p.ackUS)
		t.set("fabric.quorum_ack_p50_us", ack.p(50), ack.n())
		if v, ok := ack.supported(99); ok {
			t.set("fabric.quorum_ack_p99_us", v, ack.n())
		}
	}
	if f := w.flood; f != nil && m.acked > 0 {
		F := m.flood
		acked := float64(m.acked)
		t.ratio("fabric.repl_ktps", acked/1e3, F.seconds())
		t.ratio("tcp.tx_bytes_per_tuple", F.clientCounter("stream_client_tx_bytes_total"), acked)
		t.ratio("tcp.rx_bytes_per_tuple", F.clientCounter("stream_client_rx_bytes_total"), acked)
		h1, h0 := F.to.client.Histograms["stream_client_batch_size"], F.from.client.Histograms["stream_client_batch_size"]
		t.ratio("tcp.coalesce_batch_mean", h1.Sum-h0.Sum, float64(h1.Count-h0.Count))
		t.set("tcp.coalesce_wait_p50_us", result.Median(f.waitUS), len(f.waitUS))
	}
	t.set("fabric.replicate_entries", W.counter("fabric_replicate_entries_total", ""), 1)
	t.set("fabric.replicate_errors", W.counter("fabric_replicate_errors_total", ""), 1)
	t.set("fabric.not_leader", W.counter("fabric_not_leader_total", ""), 1)
	t.set("fabric.failovers", W.counter("fabric_failovers_total", ""), 1)
	t.set("fabric.replica_lag_max", float64(m.lagMax), 1)
	if len(m.led) > 0 {
		var most, sum float64
		for _, n := range m.led {
			most, sum = max(most, n), sum+n
		}
		t.ratio("fabric.leader_skew", most, sum/float64(len(m.led)))
	}
}

// storeRows fills the queue and archive layers.
func (m *measurement) storeRows(t table, final *snapshot, deepQueries int) {
	w, W := m.w, m.whole
	t.set("queue.evictions", W.counter("queue_history_evictions_total", ""), 1)
	t.set("queue.drops", W.counter("queue_history_drops_total", ""), 1)
	if w.archiveDir == "" {
		return
	}
	t.set("archive.appends", W.counter("archive_appends_total", ""), 1)
	t.ratio("archive.disk_bytes_per_tuple", float64(m.archiveBytes), sumCounters(final.obs, "archive_appends_total", ""))
	t.ratio("archive.read_bytes_per_query", W.counter("archive_read_bytes_total", ""), float64(deepQueries))
	t.set("archive.segments_skipped", W.counter("archive_range_segments_skipped_total", ""), 1)
	t.set("archive.compaction_runs", W.counter("archive_compaction_runs_total", ""), 1)
	t.set("archive.rotations", W.counter("archive_rotations_total", ""), 1)
}

// budgetLines lists what each layer costs per call (from the replay part and
// the vertices' own anatomy counters) and how often it was called inside the
// window. Vertex times are wall time on the vertex goroutine: the layers
// called from inside a vertex are taken off it, so what remains is the
// vertex's own work; over a remote bus its publish time is waiting.
func (m *measurement) budgetLines(t table, execNS [numKinds]float64, qms [numKinds][]float64) []budgetLine {
	w, W := m.w, m.paced
	v := func(name string) float64 { return t[name].value }
	fp := statsDelta(W.from.facts, W.to.facts, statPolls)
	ip := statsDelta(W.from.insights, W.to.insights, statPolls)
	tuples := W.tuples()
	tuplesIn := W.counter("score_tuples_in_total", "")
	preds := W.counter("delphi_predictions_total", `metric="`)
	evictions := W.counter("archive_appends_total", "")
	frames := float64(W.to.frames - W.from.frames)
	remote := len(w.nodes) > 1

	factTotal := (v("score.fact_build_ns_per_poll") + v("score.fact_other_ns_per_poll")) * fp
	if !remote {
		factTotal += v("score.fact_publish_ns_per_poll") * fp
	}
	insightTotal := (v("score.insight_build_ns_per_entry") + v("score.insight_publish_ns_per_entry")) * ip
	inside := v("telemetry.encode_ns")*tuples + v("telemetry.decode_ns")*(tuplesIn-fp) +
		v("queue.append_ns")*tuples + v("archive.append_ns_per_tuple")*evictions +
		v("delphi.observe_ns")*fp*boolf(w.model != nil) + v("delphi.predict_ticks_ns_per_pred")*preds
	if !remote {
		inside += v("broker.publish_ns_per_tuple") * tuples
	}
	lines := []budgetLine{
		{"score (vertex self)", max(factTotal+insightTotal-inside, 0) / max(fp+ip, 1), fp + ip, false},
		{"telemetry.encode", v("telemetry.encode_ns"), tuples, false},
		{"telemetry.decode", v("telemetry.decode_ns"), tuplesIn - fp + frames*boolf(w.gwAddr == ""), false},
		{"broker.publish", v("broker.publish_ns_per_tuple"), tuples * float64(len(w.nodes)), false},
		{"broker.consume", v("broker.consume_ns_per_tuple"), tuplesIn - fp + frames, false},
		{"queue.append", v("queue.append_ns"), tuples, false},
		{"archive.append", v("archive.append_ns_per_tuple"), evictions, false},
		{"delphi.observe", v("delphi.observe_ns"), fp * boolf(w.model != nil), false},
		{"delphi.fill", v("delphi.predict_ticks_ns_per_pred"), preds, false},
	}
	if remote {
		lines = append(lines, budgetLine{"score.publish (quorum wait)", v("score.fact_publish_ns_per_poll"), fp, true})
	}
	if sw := w.sweeps; sw != nil {
		lines = append(lines, budgetLine{"delphi.sweep", v("delphi.sweep_ns_per_pred"), float64(sw.preds), false})
	}
	if w.gwAddr != "" {
		lines = append(lines, budgetLine{"gateway.drain", v("gateway.drain_ns_per_frame"), frames, false})
	}
	for k := range execNS {
		if n := float64(len(qms[k])); n > 0 {
			lines = append(lines, budgetLine{"aqe.exec_" + kindNames[k], execNS[k], n, false})
		}
	}
	if n := float64(len(qms[kindLatest]) + len(qms[kindWindow]) + len(qms[kindDeep]) + len(qms[kindUnion])); n > 0 {
		lines = append(lines,
			budgetLine{"aqe.prepare (window, deep)", v("aqe.prepare_ns"), float64(len(qms[kindWindow]) + len(qms[kindDeep])), false},
			budgetLine{"gateway.query (http, json, client)", max(v("gateway.query_overhead_p50_us"), 0) * 1e3, n, false})
	}
	return lines
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// counterNames lists the counters a snapshot holds, for the trace file.
func counterNames(s *snapshot) []string {
	seen := make(map[string]bool)
	for _, o := range s.obs {
		for name := range o.Counters {
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
