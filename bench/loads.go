package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Active load generators. Together they never run more goroutines or
// connections than the machine has processors, so the generator is not what
// a run measures.

// sweepLoad calls Service.PredictAll on a fixed cadence, as a fleet driver
// polling the shared batch predictor would.
type sweepLoad struct {
	us    []float64 // sweep durations inside the window
	preds int
	stop  func()
}

const sweepEvery = 100 * time.Millisecond

func startSweeps(r *runner, svc *core.Service) *sweepLoad {
	l := &sweepLoad{us: make([]float64, 0, (r.cfg.seconds+1)*int(time.Second/sweepEvery))}
	r.own(cap(l.us) * 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sweepEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			start := time.Now()
			res := svc.PredictAll()
			d := time.Since(start)
			if !r.win.contains(start.UnixNano()) {
				continue
			}
			if len(l.us) < cap(l.us) {
				l.us = append(l.us, float64(d)/1e3)
			}
			for _, p := range res {
				if p.OK {
					l.preds++
				}
			}
			s := r.since(start)
			r.rec.add(uint64(s), "sweep", "", s, s+int64(d))
		}
	}()
	l.stop = func() { cancel(); <-done }
	return l
}

// halt stops the sweeps; a workload without them has none to stop.
func (l *sweepLoad) halt() {
	if l != nil {
		l.stop()
	}
}

// answer is one window or deep reply about an audited metric, checked against
// the benchmark's own subscription log once that log is complete.
type answer struct {
	metric   int
	from, to int64
	count    int64
	avg, max float64
}

// queryClient is one open-loop keep-alive HTTP client: request i is due
// i/queryRate seconds after the first, whatever became of the ones before it.
// Over its one connection a request cannot leave before the previous answer
// has arrived; it then leaves late, is counted as late, and the ones after it
// leave back to back until the schedule is met again. Answer times count
// from the send: a timer here wakes up to a millisecond late, which a time
// from the due instant would mostly consist of.
type queryClient struct {
	mix     *queryMix
	sent    int
	late    int // of sent, left more than queryLate after they were due
	ok      int
	okNow   atomic.Uint64 // correct answers so far, window or not: read while the client runs
	failed  int
	firstEr string
	ms      [numKinds][]float32 // request to response, by kind, inside the window
	answers []answer
}

type queryLoad struct {
	clients []*queryClient
	stop    func()
}

const (
	queryClients   = 2
	queryRate      = 2000 // requests per second and client: a third of what the pair gets through flat out in this machine's slow minutes
	queryLate      = 10 * time.Millisecond
	auditedMetrics = 4 // window/deep answers about f000..f003 are audited
)

func startQueries(r *runner, addr, token string, metrics int) *queryLoad {
	l := &queryLoad{}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	shares := [numKinds]float64{0.5, 0.3, 0.15, 0.05}
	for c := 0; c < queryClients; c++ {
		qc := &queryClient{mix: newQueryMix(r.cfg.seed, c, metrics)}
		for k := range qc.ms {
			n := int(float64(queryRate*r.cfg.seconds)*shares[k]) + 1024
			qc.ms[k] = make([]float32, 0, n)
			r.own(n * 4)
		}
		n := queryRate*r.cfg.seconds*auditedMetrics/metrics + 1024
		qc.answers = make([]answer, 0, n)
		r.own(n * 48)
		l.clients = append(l.clients, qc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc.run(ctx, r, "http://"+addr+apiv1.PathQuery, token, metrics)
		}()
	}
	l.stop = func() { cancel(); wg.Wait() }
	return l
}

func (l *queryLoad) halt() {
	if l != nil {
		l.stop()
	}
}

func (qc *queryClient) run(ctx context.Context, r *runner, url, token string, metrics int) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	var body bytes.Buffer
	for due := time.Now(); ctx.Err() == nil; due = due.Add(time.Second / queryRate) {
		// A sleep overshoots by up to a millisecond here, so the requests
		// that came due meanwhile leave back to back: the rate holds over
		// any stretch longer than that.
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		p := qc.mix.next()
		start := time.Now()
		sql, from, to := sqlFor(p, metrics, start.UnixNano())
		reqBody, _ := json.Marshal(apiv1.QueryRequest{Query: sql})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(reqBody))
		if err != nil {
			qc.fail(err)
			continue
		}
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return // cut off by the end of the run, not a failure
			}
			qc.fail(err)
			continue
		}
		body.Reset()
		_, err = io.Copy(&body, resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		inWin := r.win.contains(start.UnixNano())
		if inWin {
			qc.sent++
			if start.Sub(due) > queryLate {
				qc.late++
			}
		}
		var qr apiv1.QueryResponse
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body.Bytes()))
		}
		if err == nil {
			err = json.Unmarshal(body.Bytes(), &qr)
		}
		if err == nil {
			err = checkShape(p, qr)
		}
		if err == nil {
			qc.okNow.Add(1)
		}
		if !inWin {
			continue
		}
		if err != nil {
			qc.fail(fmt.Errorf("%s: %w", kindNames[p.kind], err))
			continue
		}
		qc.ok++
		if len(qc.ms[p.kind]) < cap(qc.ms[p.kind]) {
			qc.ms[p.kind] = append(qc.ms[p.kind], float32(float64(d)/1e6))
		}
		if (p.kind == kindWindow || p.kind == kindDeep) && p.metric < auditedMetrics && len(qc.answers) < cap(qc.answers) {
			a := answer{metric: p.metric, from: from, to: to}
			if len(qr.Rows) == 1 {
				a.count, a.avg, a.max = qr.Rows[0][0].Int, qr.Rows[0][1].Float, qr.Rows[0][2].Float
			}
			qc.answers = append(qc.answers, a)
		}
		if qc.sent%8 == 0 {
			s := r.since(start)
			r.rec.add(uint64(s), "query."+kindNames[p.kind], "", s, s+int64(d))
		}
	}
}

func (qc *queryClient) fail(err error) {
	qc.failed++
	if qc.firstEr == "" {
		qc.firstEr = err.Error()
	}
}

// checkShape checks what can be checked of an answer without knowing the
// data: rows and cells present, counts positive. An aggregate over a range
// that holds no tuple has no row: the first deep queries of a run reach back
// before the service started.
func checkShape(p queryPick, qr apiv1.QueryResponse) error {
	wantRows, wantCells := 1, 2
	switch p.kind {
	case kindUnion:
		wantRows = unionBranches
	case kindWindow, kindDeep:
		wantCells = 3
		if len(qr.Rows) == 0 {
			return nil
		}
	}
	if len(qr.Rows) != wantRows {
		return fmt.Errorf("%d rows, want %d", len(qr.Rows), wantRows)
	}
	for _, row := range qr.Rows {
		if len(row) != wantCells {
			return fmt.Errorf("%d cells, want %d", len(row), wantCells)
		}
		if row[0].Kind != apiv1.ValueInt || row[0].Int <= 0 {
			return fmt.Errorf("first cell %v is not a positive integer", row[0])
		}
	}
	return nil
}

// floodLoad is one closed-loop publisher on one topic through the coalescing
// client: at most floodOutstanding tuples are unacknowledged at any time.
type floodLoad struct {
	acked    atomic.Uint64
	failed   int
	disorder int
	lastID   uint64
	firstEr  string
	waitUS   []float64 // PublishAsync call to ack, one tuple in floodSample
	stop     func()
}

const (
	floodTopic       = "flood"
	floodOutstanding = 1024
	floodSample      = 64
)

type pendingAck struct {
	res  <-chan stream.PublishResult
	sent time.Time
}

func startFlood(r *runner, c *stream.Client, seconds int) *floodLoad {
	l := &floodLoad{waitUS: make([]float64, 0, 400_000*seconds/floodSample)}
	r.own(cap(l.waitUS) * 8)
	payload, _ := telemetry.NewFact(floodTopic, time.Now().UnixNano(), 1).MarshalBinary()
	ctx, cancel := context.WithCancel(context.Background())
	// The channel's capacity is the bound on outstanding publishes.
	inflight := make(chan pendingAck, floodOutstanding)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(inflight)
		for ctx.Err() == nil {
			p := pendingAck{sent: time.Now()}
			p.res = c.PublishAsync(ctx, floodTopic, payload)
			inflight <- p
		}
	}()
	go func() {
		defer wg.Done()
		for p := range inflight {
			res := <-p.res
			if res.Err != nil {
				if ctx.Err() != nil {
					continue // cut off by the end of the segment, not a failure
				}
				l.failed++
				if l.firstEr == "" {
					l.firstEr = res.Err.Error()
				}
				continue
			}
			if res.ID <= l.lastID {
				l.disorder++
			}
			l.lastID = res.ID
			if n := l.acked.Add(1); n%floodSample == 0 {
				now := time.Now()
				if len(l.waitUS) < cap(l.waitUS) {
					l.waitUS = append(l.waitUS, float64(now.Sub(p.sent))/1e3)
				}
				s := r.since(p.sent)
				r.rec.add(n, "publish", "", s, r.since(now))
			}
		}
	}()
	l.stop = func() { cancel(); wg.Wait() }
	return l
}

// ackProbe measures, at a low fixed rate beside the paced load, the floor
// under every fabric publish: the client's wire round trip (Ping) and a
// single Publish to its quorum ack.
type ackProbe struct {
	rttUS, ackUS []float64
	failed       int
	firstEr      string
	stop         func()
}

const (
	probeTopic = "ack.probe"
	probeEvery = 10 * time.Millisecond
)

func startAckProbe(r *runner, c *stream.Client) *ackProbe {
	n := (r.cfg.seconds + 1) * int(time.Second/probeEvery)
	l := &ackProbe{rttUS: make([]float64, 0, n), ackUS: make([]float64, 0, n)}
	r.own(2 * n * 8)
	payload, _ := telemetry.NewFact(probeTopic, time.Now().UnixNano(), 1).MarshalBinary()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			// Not ctx: a publish cancelled half-way may have reached one
			// follower and not the other.
			t0 := time.Now()
			err := c.Ping(context.Background())
			t1 := time.Now()
			if err == nil {
				_, err = c.Publish(context.Background(), probeTopic, payload)
			}
			t2 := time.Now()
			if !r.win.contains(t0.UnixNano()) {
				continue
			}
			if err != nil {
				l.failed++
				if l.firstEr == "" {
					l.firstEr = err.Error()
				}
				continue
			}
			if len(l.rttUS) < cap(l.rttUS) {
				l.rttUS = append(l.rttUS, float64(t1.Sub(t0))/1e3)
				l.ackUS = append(l.ackUS, float64(t2.Sub(t1))/1e3)
			}
			s := r.since(t1)
			r.rec.add(uint64(s), "publish.ack", "", s, r.since(t2))
		}
	}()
	l.stop = func() { cancel(); <-done }
	return l
}
