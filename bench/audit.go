package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The output audit runs in every run, once the vertices have stopped and the
// subscribers have caught up. A violated invariant fails the run: it then
// prints no metrics, because numbers from a pipeline that lost or reordered
// tuples measure something else.

// audit checks, in order: every subscriber saw its stream whole and in
// order; the tuples the bus accepted are exactly the ones the vertices say
// they produced from the polls the hooks served; audited query answers equal
// the same aggregate over the benchmark's own subscription log; and the
// fabric's replicas agree.
func (m *measurement) audit(final *snapshot, tails map[string]uint64) error {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	w := m.w

	for _, s := range w.subs {
		switch {
		case s.evicted:
			fail("subscriber %s/%s was evicted", s.topic, s.transport)
		case s.gaps > 0 || s.disorder > 0 || s.bad > 0:
			fail("subscriber %s/%s: %d ids skipped, %d out of order, %d undecodable", s.topic, s.transport, s.gaps, s.disorder, s.bad)
		case s.position() != tails[s.topic]:
			fail("subscriber %s/%s stopped at id %d, the bus holds %d", s.topic, s.transport, s.position(), tails[s.topic])
		}
	}

	// Conservation, on totals since the vertices started (they are stopped
	// now, so the counters are final).
	var hookPolls, hookRepeats uint64
	for _, h := range w.hooks {
		hookPolls += h.allPoll.Load()
		hookRepeats += h.allRep.Load()
	}
	// Trace-fed facts come first in w.facts; probe facts follow.
	var out, polls, suppressed uint64
	for i, st := range final.facts {
		if got, want := st.Published, st.Polls-st.Suppressed-st.Errors; got != want {
			fail("fact %s published %d measured tuples, polls-suppressed-errors is %d", w.facts[i].Metric(), got, want)
		}
		out += st.Published + st.Predicted
		if i < len(w.hooks) {
			polls += st.Polls
			suppressed += st.Suppressed
		}
	}
	for _, st := range final.insights {
		out += st.Published
	}
	if polls != hookPolls {
		fail("vertices counted %d polls, hooks served %d", polls, hookPolls)
	}
	if suppressed != hookRepeats {
		fail("vertices suppressed %d tuples, hooks repeated %d values", suppressed, hookRepeats)
	}
	if got := uint64(sumCounters(final.obs, "score_tuples_out_total", "")); got != out {
		fail("bus accepted %d tuples, vertices produced %d (polls - suppressed + predictions + insight outputs)", got, out)
	}
	var logged uint64
	for _, topic := range vertexTopics(w) {
		logged += w.tail(topic)
	}
	if logged != out {
		fail("broker logs hold %d vertex tuples, vertices produced %d", logged, out)
	}

	if w.queries != nil {
		logs := make(map[int][]tuple)
		for i, s := range w.subs {
			logs[i] = s.log // subscriber i reads audited metric f00i
		}
		for _, qc := range w.queries.clients {
			for _, a := range qc.answers {
				if err := checkAnswer(a, logs[a.metric]); err != nil {
					fail("query about %s in [%d, %d]: %v", factName(a.metric), a.from, a.to, err)
					break
				}
			}
		}
	}

	if len(w.nodes) > 1 {
		ctx := context.Background()
		topics := append(vertexTopics(w), floodTopic, probeTopic)
		for _, topic := range topics {
			_, want, _ := w.nodes[0].Broker().TopicTail(ctx, topic)
			for _, n := range w.nodes[1:] {
				if _, got, _ := n.Broker().TopicTail(ctx, topic); got != want {
					fail("replicas disagree on %s: tails %d and %d", topic, want, got)
				}
			}
		}
		if f := w.flood; f != nil {
			_, tail, _ := w.nodes[0].Broker().TopicTail(ctx, floodTopic)
			if f.disorder > 0 || (f.failed == 0 && tail != f.acked.Load()) {
				fail("flood: %d acks out of order; log holds %d, %d acked", f.disorder, tail, f.acked.Load())
			}
		}
	}
	if len(bad) > 0 {
		return errors.New("output audit failed:\n  " + strings.Join(bad, "\n  "))
	}
	return nil
}

func vertexTopics(w *world) []string {
	topics := make([]string, 0, len(w.facts)+len(w.insights))
	for _, v := range w.facts {
		topics = append(topics, string(v.Metric()))
	}
	for _, v := range w.insights {
		topics = append(topics, string(v.Metric()))
	}
	return topics
}

// checkAnswer recomputes COUNT, AVG and MAX over the logged tuples with
// timestamps in [from, to]. The log is in stream order, which is timestamp
// order.
func checkAnswer(a answer, log []tuple) error {
	lo := sort.Search(len(log), func(i int) bool { return log[i].ts >= a.from })
	hi := sort.Search(len(log), func(i int) bool { return log[i].ts > a.to })
	n := int64(hi - lo)
	if n != a.count {
		return fmt.Errorf("COUNT %d, the subscription log has %d", a.count, n)
	}
	if n == 0 {
		return nil
	}
	var sum float64
	most := math.Inf(-1)
	for _, t := range log[lo:hi] {
		sum += t.value
		most = max(most, t.value)
	}
	if avg := sum / float64(n); math.Abs(a.avg-avg) > 1e-9*math.Abs(avg) {
		return fmt.Errorf("AVG %v, the subscription log gives %v", a.avg, avg)
	}
	if a.max != most {
		return fmt.Errorf("MAX %v, the subscription log gives %v", a.max, most)
	}
	return nil
}
