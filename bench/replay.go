package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/delphi"
	"repro/internal/gateway"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// The replay part of a traced run: tuples and SQL captured from the run are
// pushed single-threaded through one layer at a time, through the layer's
// public functions, so each layer has a cost per call that does not depend
// on what the scheduler did during the window.

const replayMax = 100_000 // tuples captured for replay

// replayID is the span id all replay spans share.
const replayID = 1

// cost is what one call of a replayed operation took.
type cost struct{ ns, allocs, bytes float64 }

// timeOps runs fn, which performs ops operations, and returns the cost of
// one. The collector stays on: its share is part of what a layer costs.
func (r *runner) timeOps(name string, ops int, fn func()) cost {
	if ops == 0 {
		return cost{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	s := r.since(start)
	r.rec.add(replayID, "replay."+name, "replay", s, s+int64(d))
	n := float64(ops)
	return cost{float64(d) / n, float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n}
}

// capturedInfos turns what the hooks saw into tuples in timestamp order.
func capturedInfos(hooks []*traceHook) []telemetry.Info {
	var infos []telemetry.Info
	for _, h := range hooks {
		for _, c := range h.captured {
			infos = append(infos, telemetry.NewFact(h.id, c.ts, c.value))
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Timestamp < infos[j].Timestamp })
	return infos[:min(len(infos), replayMax)]
}

// replayCommon times the layers every workload uses: the tuple codec, the
// broker's log, and the history ring.
func (r *runner) replayCommon(t table, infos []telemetry.Info, singlesPerBatch, batchSize, historySize int) {
	n := len(infos)
	if n == 0 {
		return
	}
	payloads := make([][]byte, n)
	var size int
	enc := r.timeOps("telemetry.encode", n, func() {
		for i, in := range infos {
			payloads[i], _ = in.MarshalBinary()
			size += len(payloads[i])
		}
	})
	dec := r.timeOps("telemetry.decode", n, func() {
		var in telemetry.Info
		for _, p := range payloads {
			_ = in.UnmarshalBinary(p)
		}
	})
	t.set("telemetry.encode_ns", enc.ns, n)
	t.set("telemetry.decode_ns", dec.ns, n)
	t.set("telemetry.bytes_per_tuple", float64(size)/float64(n), n)

	// Publish with the run's own mix of single publishes and batches.
	ctx := context.Background()
	b := stream.NewBroker(n + 1)
	defer b.Close()
	pub := r.timeOps("broker.publish", n, func() {
		for i := 0; i < n; {
			for k := 0; k < singlesPerBatch && i < n; k++ {
				_, _ = b.Publish(ctx, "replay", payloads[i])
				i++
			}
			if batchSize > 0 {
				j := min(i+batchSize, n)
				_, _ = b.PublishBatch(ctx, "replay", payloads[i:j])
				i = j
			} else if singlesPerBatch == 0 {
				_, _ = b.Publish(ctx, "replay", payloads[i])
				i++
			}
		}
	})
	con := r.timeOps("broker.consume", n, func() {
		var last uint64
		for last < uint64(n) {
			es, err := b.ConsumeBatch(ctx, "replay", last, 64)
			if err != nil {
				return
			}
			last = es[len(es)-1].ID
		}
	})
	t.set("broker.publish_ns_per_tuple", pub.ns, n)
	t.set("broker.consume_ns_per_tuple", con.ns, n)
	t.set("broker.allocs_per_tuple", pub.allocs+con.allocs, n)
	t.set("broker.bytes_per_tuple", pub.bytes+con.bytes, n)

	h := queue.NewHistory(historySize, nil)
	app := r.timeOps("queue.append", n, func() {
		for _, in := range infos {
			h.Append(in)
		}
	})
	oldest, newest, _ := h.Bounds()
	visited := 0
	const scans = 256
	step := (newest - oldest) / scans
	rng := r.timeOps("queue.range", 1, func() {
		for i := int64(0); i < scans; i++ {
			h.RangeFunc(oldest+i*step, oldest+(i+8)*step, func(telemetry.Info) bool { visited++; return true })
		}
	})
	t.set("queue.append_ns", app.ns, n)
	t.ratio("queue.range_ns_per_tuple", rng.ns, float64(visited))
}

// replayArchive times appends to and range reads of a fresh log in dir.
func (r *runner) replayArchive(t table, infos []telemetry.Info, dir string) {
	n := len(infos)
	if n == 0 {
		return
	}
	log, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return
	}
	defer log.Close()
	app := r.timeOps("archive.append", n, func() {
		for _, in := range infos {
			_ = log.Append(in)
		}
		_ = log.Sync()
	})
	visited := 0
	const scans = 64
	span := infos[n-1].Timestamp - infos[0].Timestamp
	rng := r.timeOps("archive.range", 1, func() {
		for i := int64(0); i < scans; i++ {
			from := infos[0].Timestamp + i*span/scans
			_ = log.Range(from, from+span/scans, func(telemetry.Info) error { visited++; return nil })
		}
	})
	t.set("archive.append_ns_per_tuple", app.ns, n)
	t.ratio("archive.range_ns_per_tuple", rng.ns, float64(visited))
}

// replayDelphi times the per-poll model work of a Fact vertex: one observe,
// then the forecasts that fill the ticks until the next poll.
func (r *runner) replayDelphi(t table, model *delphi.Model, infos []telemetry.Info, ticks int) {
	n := len(infos)
	if n == 0 || model == nil {
		return
	}
	o := delphi.NewOnline(model)
	obs := r.timeOps("delphi.observe", n, func() {
		for _, in := range infos {
			o.Observe(in.Value)
		}
	})
	buf := make([]float64, 0, ticks)
	pred := r.timeOps("delphi.predict_ticks", n, func() {
		for range infos {
			buf = o.PredictTicksInto(buf[:0], ticks)
		}
	})
	t.set("delphi.observe_ns", obs.ns, n)
	t.set("delphi.predict_ticks_ns_per_pred", pred.ns/float64(ticks), n*ticks)
	t.set("delphi.allocs_per_poll", obs.allocs+pred.allocs, n)
}

// replayQueries times direct Engine calls, one kind at a time, while ingest
// still runs: the texts carry time ranges relative to now, as the clients'
// did. It returns the cost of a prepared execution per kind.
func (r *runner) replayQueries(t table, eng *aqe.Engine, metrics int) [numKinds]float64 {
	const reps = 400
	mix := newQueryMix(r.cfg.seed, 99, metrics)
	var texts []string
	for len(texts) < reps {
		if p := mix.next(); p.kind == kindWindow {
			sql, _, _ := sqlFor(p, metrics, time.Now().UnixNano())
			texts = append(texts, sql)
		}
	}
	prep := r.timeOps("aqe.prepare", reps, func() {
		for _, sql := range texts {
			_, _ = eng.Prepare(sql) // literal timestamps no earlier query carried: a plan-cache miss
		}
	})
	t.set("aqe.prepare_ns", prep.ns, reps)
	var exec [numKinds]float64
	var allocs float64
	for kind := 0; kind < numKinds; kind++ {
		plans := make([]*aqe.Plan, 0, reps)
		for i := 0; i < reps; i++ {
			sql, _, _ := sqlFor(queryPick{kind, i % metrics}, metrics, time.Now().UnixNano())
			if p, err := eng.Prepare(sql); err == nil {
				plans = append(plans, p)
			}
		}
		c := r.timeOps("aqe.exec_"+kindNames[kind], len(plans), func() {
			for _, p := range plans {
				_, _ = eng.ExecutePlan(p)
			}
		})
		exec[kind] = c.ns
		allocs += c.allocs / numKinds
		t.set("aqe.exec_"+kindNames[kind]+"_ns", c.ns, len(plans))
	}
	t.set("aqe.allocs_per_query", allocs, reps*numKinds)
	return exec
}

// replayGateway attaches a subscriber without a transport and drains the
// frames of what the topic retains: decode, frame build and queueing, without
// JSON encoding or a socket. A backlog longer than the send queue would evict
// the subscriber before it reads its first frame, so each attach resumes just
// under a queue's length before the tail, and several attaches make the
// sample.
func (r *runner) replayGateway(t table, gw *gateway.Gateway, topic string, tail uint64) {
	if gw == nil || tail == 0 {
		return
	}
	const attaches = 8
	want := min(tail, gatewayQueue-24)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := 0
	c := r.timeOps("gateway.drain", 1, func() {
		for a := 0; a < attaches; a++ {
			sub, err := gw.Attach(ctx, "bench", topic, tail-want)
			if err != nil {
				return
			}
			for n := uint64(0); n < want; n++ {
				select {
				case <-sub.Frames():
					got++
				case <-sub.Final():
					n = want
				case <-ctx.Done():
					n = want
				}
			}
			sub.Close()
		}
	})
	t.ratio("gateway.drain_ns_per_frame", c.ns, float64(got))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
