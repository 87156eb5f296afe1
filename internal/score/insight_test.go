package score

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// refInsight is the per-entry reference the vertex is checked against: a
// fresh copy of the inputs for every entry, a full rescan for predicted
// inputs, one output at a time.
type refInsight struct {
	inputs    []telemetry.MetricID
	builder   Builder
	unchanged bool
	now       int64

	latest  map[telemetry.MetricID]telemetry.Info
	last    float64
	hasLast bool
	out     []telemetry.Info
	stats   StatsSnapshot
}

func (r *refInsight) consume(payload []byte) {
	var in telemetry.Info
	if in.UnmarshalBinary(payload) != nil || !slices.Contains(r.inputs, in.Metric) {
		r.stats.Errors++
		return
	}
	r.latest[in.Metric] = in
	if len(r.latest) < len(r.inputs) {
		return
	}
	inputs := make([]telemetry.Info, len(r.inputs))
	for i, id := range r.inputs {
		inputs[i] = r.latest[id]
	}
	value := r.builder(inputs)
	r.stats.Polls++
	src := telemetry.Measured
	for _, i := range inputs {
		if i.Source == telemetry.Predicted {
			src = telemetry.Predicted
		}
	}
	changed := !r.hasLast || value != r.last
	r.last, r.hasLast = value, true
	if !changed && !r.unchanged {
		r.stats.Suppressed++
		return
	}
	r.out = append(r.out, telemetry.Info{Metric: "ref.out", Timestamp: r.now, Value: value, Kind: telemetry.KindInsight, Source: src})
	r.stats.Published++
	if src == telemetry.Predicted {
		r.stats.Predicted++
	}
}

// burst is a run of payloads published to one input topic at once.
type burst struct {
	topic    telemetry.MetricID
	payloads [][]byte
}

// randomBursts returns one warm-up entry per input (shuffled, stamped in the
// past) followed by n bursts of 1-5 entries: new measured values, predicted
// values (some stamped in the future), repeats of the input's current value,
// corrupted encodings, and tuples of a metric the vertex does not consume.
// Values are small integers, so every Builder is exact whatever the order it
// folds them in.
func randomBursts(rng *rand.Rand, inputs []telemetry.MetricID, now int64, n int) []burst {
	encode := func(in telemetry.Info) []byte {
		b, err := in.MarshalBinary()
		if err != nil {
			panic(err)
		}
		return b
	}
	current := make(map[telemetry.MetricID]float64, len(inputs))
	var out []burst
	for _, i := range rng.Perm(len(inputs)) {
		current[inputs[i]] = float64(rng.Intn(100))
		out = append(out, burst{inputs[i], [][]byte{encode(telemetry.NewFact(inputs[i], now-1-int64(i), current[inputs[i]]))}})
	}
	for ; n > 0; n-- {
		b := burst{topic: inputs[rng.Intn(len(inputs))]}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			ts := now - int64(rng.Intn(1000))
			switch rng.Intn(8) {
			case 0, 1, 2:
				current[b.topic] = float64(rng.Intn(100))
				b.payloads = append(b.payloads, encode(telemetry.NewFact(b.topic, ts, current[b.topic])))
			case 3, 4:
				current[b.topic] = float64(rng.Intn(100))
				b.payloads = append(b.payloads, encode(telemetry.NewPredictedFact(b.topic, ts+int64(rng.Intn(2000)), current[b.topic])))
			case 5:
				b.payloads = append(b.payloads, encode(telemetry.NewFact(b.topic, ts, current[b.topic])))
			case 6:
				p := encode(telemetry.NewFact(b.topic, ts, 1))
				p[rng.Intn(len(p))] ^= 0x40
				b.payloads = append(b.payloads, p)
			case 7:
				b.payloads = append(b.payloads, encode(telemetry.NewFact("stray", ts, 1)))
			}
		}
		out = append(out, b)
	}
	return out
}

// consumedBus counts, per topic, the entries its cursors have handed out and
// then been asked past. A vertex input goroutine calls Next again only once it
// has consumed the run before, so the count is of entries fully consumed,
// counters included.
type consumedBus struct {
	stream.Bus
	mu       sync.Mutex
	consumed map[string]int
	changed  chan struct{} // closed and replaced on every count
}

func newConsumedBus(bus stream.Bus) *consumedBus {
	return &consumedBus{Bus: bus, consumed: map[string]int{}, changed: make(chan struct{})}
}

func (b *consumedBus) Follow(ctx context.Context, topic string, afterID uint64) (stream.Cursor, error) {
	cur, err := b.Bus.Follow(ctx, topic, afterID)
	if err != nil {
		return nil, err
	}
	return &consumedCursor{Cursor: cur, bus: b, topic: topic}, nil
}

// await blocks until n entries of topic are consumed, failing the test after
// 2s.
func (b *consumedBus) await(t *testing.T, topic string, n int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		b.mu.Lock()
		got, changed := b.consumed[topic], b.changed
		b.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("%d of %d entries of %s consumed after 2s", got, n, topic)
		}
	}
}

type consumedCursor struct {
	stream.Cursor
	bus   *consumedBus
	topic string
	held  int // entries of the run last handed out
}

func (c *consumedCursor) Next() ([]stream.Entry, error) {
	if c.held > 0 {
		b := c.bus
		b.mu.Lock()
		b.consumed[c.topic] += c.held
		close(b.changed)
		b.changed = make(chan struct{})
		b.mu.Unlock()
	}
	run, err := c.Cursor.Next()
	c.held = len(run)
	return run, err
}

// TestInsightMatchesReference drives the vertex and the per-entry reference
// with the same seeded bursts — entry by entry through ConsumeOnce, burst by
// burst as runs, and over live subscriptions — and demands the same outputs
// in the same order, the same counts, contiguous bus IDs, and a history
// holding what the bus holds.
func TestInsightMatchesReference(t *testing.T) {
	const now = int64(1_000_000)
	builders := []Builder{Sum, Max}
	for _, nIn := range []int{1, 8, 32} {
		for _, unchanged := range []bool{false, true} {
			for _, mode := range []string{"once", "runs", "live"} {
				seed := int64(nIn) // the same bursts in every mode
				if unchanged {
					seed += 100
				}
				t.Run(fmt.Sprintf("inputs=%d/unchanged=%v/%s", nIn, unchanged, mode), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					inputs := make([]telemetry.MetricID, nIn)
					for i := range inputs {
						inputs[i] = telemetry.MetricID(fmt.Sprintf("in%02d", i))
					}
					builder := builders[rng.Intn(len(builders))]
					bursts := randomBursts(rng, inputs, now, 300)
					ref := &refInsight{inputs: inputs, builder: builder, unchanged: unchanged, now: now,
						latest: map[telemetry.MetricID]telemetry.Info{}}

					bus := newConsumedBus(stream.NewBroker(1 << 12))
					sent := map[telemetry.MetricID]int{}
					v, err := NewInsightVertex(InsightConfig{
						Metric: "ref.out", Inputs: inputs, Builder: builder, Bus: bus,
						Clock: sim.NewVirtual(time.Unix(0, now)), PublishUnchanged: unchanged,
					})
					if err != nil {
						t.Fatal(err)
					}
					if mode == "live" {
						if err := v.Start(); err != nil {
							t.Fatal(err)
						}
						defer v.Stop()
					}
					for _, b := range bursts {
						for _, p := range b.payloads {
							ref.consume(p)
						}
						switch mode {
						case "once":
							for _, p := range b.payloads {
								v.ConsumeOnce(stream.Entry{Payload: p})
							}
						case "runs":
							run := make([]stream.Entry, len(b.payloads))
							for j, p := range b.payloads {
								run[j].Payload = p
							}
							v.consume(context.Background(), slices.Index(inputs, b.topic), run, nil)
						case "live":
							if _, err := bus.PublishBatch(context.Background(), string(b.topic), b.payloads); err != nil {
								t.Fatal(err)
							}
							// The order across inputs is the test's to fix, so
							// wait for this burst to be consumed before
							// publishing the next.
							sent[b.topic] += len(b.payloads)
							bus.await(t, string(b.topic), sent[b.topic])
						}
					}
					v.Stop()

					st := v.Stats()
					got := StatsSnapshot{Polls: st.Polls, Published: st.Published, Suppressed: st.Suppressed, Predicted: st.Predicted, Errors: st.Errors}
					if got != ref.stats {
						t.Fatalf("stats = %+v, reference %+v", got, ref.stats)
					}
					entries, err := bus.Range(context.Background(), "ref.out", 1, 1<<62, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(entries) != len(ref.out) {
						t.Fatalf("bus holds %d insights, reference made %d", len(entries), len(ref.out))
					}
					for i, e := range entries {
						var out telemetry.Info
						if err := out.UnmarshalBinary(e.Payload); err != nil {
							t.Fatalf("insight %d: %v", i, err)
						}
						if e.ID != uint64(i+1) || out != ref.out[i] {
							t.Fatalf("insight %d = id %d %v, reference id %d %v", i, e.ID, out, i+1, ref.out[i])
						}
					}
					if hist := scanAll(v, -1<<62, 1<<62); !slices.Equal(hist, ref.out) {
						t.Fatalf("history holds %d insights, the bus %d", len(hist), len(ref.out))
					}
				})
			}
		}
	}
}

// TestInsightHistoryHoldsEveryPublishedTuple: insight time is processing time.
// Measured inputs stamped now alternate with predicted ones stamped a second
// ahead, as Delphi's fill stamps them; at the parent an insight took the later
// of the two times, so the one derived from the next measured input was older
// than the history's tail and the ring dropped it.
func TestInsightHistoryHoldsEveryPublishedTuple(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	bus := stream.NewBroker(0)
	inputs := make([]telemetry.MetricID, 8)
	for i := range inputs {
		inputs[i] = telemetry.MetricID(fmt.Sprintf("in%d", i))
	}
	v, err := NewInsightVertex(InsightConfig{Metric: "sum", Inputs: inputs, Builder: Sum, Bus: bus, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for n := 0; n < rounds*len(inputs); n++ {
		clock.Advance(time.Millisecond)
		in, now := inputs[n%len(inputs)], clock.Now().UnixNano()
		fact := telemetry.NewFact(in, now, float64(n))
		if (n/len(inputs)+n)%2 == 1 {
			fact = telemetry.NewPredictedFact(in, now+int64(time.Second), float64(n))
		}
		v.ConsumeOnce(publish(t, bus, fact))
	}
	entries, err := bus.Range(context.Background(), "sum", 1, 1<<62, 0)
	if want := (rounds-1)*len(inputs) + 1; err != nil || len(entries) != want {
		t.Fatalf("bus holds %d insights (%v), want %d", len(entries), err, want)
	}
	hist := scanAll(v, -1<<62, 1<<62)
	if len(hist) != len(entries) {
		t.Fatalf("history holds %d of the %d insights on the bus", len(hist), len(entries))
	}
	for i, e := range entries {
		var out telemetry.Info
		if err := out.UnmarshalBinary(e.Payload); err != nil || out != hist[i] {
			t.Fatalf("insight %d: bus %v (%v), history %v", i, out, err, hist[i])
		}
	}
}

// TestInsightStrayTupleDropped: a tuple of a foreign metric on an input topic
// is counted and dropped; at the parent it grew the inputs map past the
// readiness test and silenced the vertex for good.
func TestInsightStrayTupleDropped(t *testing.T) {
	bus := stream.NewBroker(0)
	v, err := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a", "b"},
		Builder: Sum, Bus: bus, Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	stray, _ := telemetry.NewFact("c", 1, 1000).MarshalBinary()
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 1, 1)))
	v.ConsumeOnce(stream.Entry{ID: 9, Payload: stray})
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("b", 2, 2)))
	if in, ok := v.Latest(); !ok || in.Value != 3 {
		t.Fatalf("latest=%v ok=%v, want the sum of a and b", in, ok)
	}
	if st := v.Stats(); st.Errors != 1 || st.Published != 1 {
		t.Fatalf("stats=%+v, want the stray tuple counted as the one error", st)
	}
}

// TestInsightDuplicateInputRejected: a metric listed twice would own two
// slots, and an empty one could never be told from an unseen slot.
func TestInsightDuplicateInputRejected(t *testing.T) {
	for _, inputs := range [][]telemetry.MetricID{{"a", "b", "a"}, {"a", ""}} {
		_, err := NewInsightVertex(InsightConfig{
			Metric: "sum", Inputs: inputs, Builder: Sum, Bus: stream.NewBroker(0),
		})
		if !errors.Is(err, ErrVertexConfig) {
			t.Fatalf("inputs %q: err=%v, want ErrVertexConfig", inputs, err)
		}
	}
}

// TestInsightRebuildIsBitStable: the same latest inputs rebuild the same
// float64, so a re-delivered tuple that changes nothing publishes nothing. At
// the parent Sum folded the inputs in map order, which Go randomizes per
// iteration: non-integer values rounded differently from one rebuild to the
// next, and the only-if-changed filter let about half of the rebuilds through.
func TestInsightRebuildIsBitStable(t *testing.T) {
	values := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	inputs := make([]telemetry.MetricID, len(values))
	for i := range inputs {
		inputs[i] = telemetry.MetricID(fmt.Sprintf("in%d", i))
	}
	v, err := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: inputs, Builder: Sum,
		Bus: stream.NewBroker(0), Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var again []byte
	for i, in := range inputs {
		p, err := telemetry.NewFact(in, 1, values[i]).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v.ConsumeOnce(stream.Entry{ID: uint64(i + 1), Payload: p})
		again = p
	}
	const repeats = 200
	for n := 0; n < repeats; n++ {
		v.ConsumeOnce(stream.Entry{ID: uint64(len(inputs) + 1 + n), Payload: again})
	}
	if st := v.Stats(); st.Published != 1 || st.Suppressed != repeats {
		t.Fatalf("stats=%+v: want the first build published and all %d rebuilds suppressed", st, repeats)
	}
}

// TestBuildersFoldInInputOrder: a Builder sees inputs[i] as the latest tuple
// of Inputs[i], whatever order the tuples arrived in, and Sum folds in that
// order. 1 + 1e-16 rounds back to 1, so a, b, c sums to 0; every other order
// gives 1e-16 or 1.1e-16. (1e16, 1, -1e16 would not do: c, b, a sums to 0
// too, since -1e16 + 1 rounds back to -1e16.)
func TestBuildersFoldInInputOrder(t *testing.T) {
	in := []telemetry.Info{
		telemetry.NewFact("a", 1, 1),
		telemetry.NewFact("b", 1, 1e-16),
		telemetry.NewFact("c", 1, -1),
	}
	if Sum(in) != 0 {
		t.Fatalf("sum=%v, want 0 from folding in Inputs order", Sum(in))
	}
	bus := stream.NewBroker(0)
	var seen []telemetry.MetricID
	v, err := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a", "b", "c"}, Bus: bus,
		Clock: sim.NewVirtual(time.Unix(0, 0)),
		Builder: func(inputs []telemetry.Info) float64 {
			seen = seen[:0]
			for _, in := range inputs {
				seen = append(seen, in.Metric)
			}
			return Sum(inputs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0, 1} {
		v.ConsumeOnce(publish(t, bus, in[i]))
	}
	if got, ok := v.Latest(); !ok || got.Value != 0 || !slices.Equal(seen, []telemetry.MetricID{"a", "b", "c"}) {
		t.Fatalf("latest=%v ok=%v, builder saw %v: want 0 over a, b, c", got, ok, seen)
	}
}

// insightFeed is a warmed-up vertex over n inputs plus, per input, a cycle of
// pre-encoded entries with changing values and the decode scratch an input
// goroutine would own.
type insightFeed struct {
	v       *InsightVertex
	entries [][]stream.Entry
	scratch [][]telemetry.Info
	next    int
}

func newInsightFeed(tb testing.TB, n int) *insightFeed {
	tb.Helper()
	inputs := make([]telemetry.MetricID, n)
	for i := range inputs {
		inputs[i] = telemetry.MetricID(fmt.Sprintf("node%02d.nvme0.capacity", i))
	}
	v, err := NewInsightVertex(InsightConfig{
		Metric: "cluster.capacity", Inputs: inputs, Builder: Sum,
		Bus: stream.NewBroker(1 << 12), Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := &insightFeed{v: v, entries: make([][]stream.Entry, n), scratch: make([][]telemetry.Info, n)}
	for i, in := range inputs {
		for k := 0; k < 64; k++ {
			p, err := telemetry.NewFact(in, int64(k), float64(i*64+k)).MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			f.entries[i] = append(f.entries[i], stream.Entry{Payload: p})
		}
		f.scratch[i] = v.consume(context.Background(), i, f.entries[i][:8], nil)
	}
	return f
}

// consume feeds the next run of k entries, inputs taking turns.
func (f *insightFeed) consume(k int) {
	i := f.next % len(f.entries)
	off := (f.next / len(f.entries) * k) % (64 - k)
	f.next++
	f.scratch[i] = f.v.consume(context.Background(), i, f.entries[i][off:off+k], f.scratch[i])
}

// TestInsightConsumeAllocs pins the steady-state consume path: decode over
// the input's scratch, update in place, encode into the vertex's buffer, one
// broker append and one ring write — nothing on the heap. (The broker's rare
// chunk allocation is a small fraction of one per call.)
func TestInsightConsumeAllocs(t *testing.T) {
	for _, k := range []int{1, 5} {
		f := newInsightFeed(t, 8)
		if got := testing.AllocsPerRun(500, func() { f.consume(k) }); got > 0 {
			t.Fatalf("consuming a run of %d allocates %v times, want 0", k, got)
		}
		if st := f.v.Stats(); st.Errors != 0 || st.Published < 500 {
			t.Fatalf("stats=%+v: the measured path did not publish", st)
		}
	}
}

func BenchmarkInsightConsume(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		for _, k := range []int{1, 5} {
			b.Run(fmt.Sprintf("inputs=%d/run=%d", n, k), func(b *testing.B) {
				f := newInsightFeed(b, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += k {
					f.consume(k)
				}
			})
		}
	}
}

// parkingBus is a broker whose publishes of one topic park until their
// context ends, as a publish to an unreachable remote broker would.
type parkingBus struct {
	*stream.Broker
	topic  string
	parked chan struct{} // one token per publish that parked
	calls  atomic.Int64
}

func (p *parkingBus) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if topic != p.topic {
		return p.Broker.PublishBatch(ctx, topic, payloads)
	}
	p.calls.Add(1)
	select {
	case p.parked <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestInsightStopWhilePublishBlocked: with one input goroutine parked inside
// PublishBatch under the actor lock and the others queued behind it, Stop
// still returns, leaves no goroutine behind, and nothing reaches the bus
// afterwards.
func TestInsightStopWhilePublishBlocked(t *testing.T) {
	bus := &parkingBus{Broker: stream.NewBroker(1 << 10), topic: "sum", parked: make(chan struct{}, 1)}
	inputs := make([]telemetry.MetricID, 32)
	for i := range inputs {
		inputs[i] = telemetry.MetricID(fmt.Sprintf("in%02d", i))
	}
	v, err := NewInsightVertex(InsightConfig{Metric: "sum", Inputs: inputs, Builder: Sum, Bus: bus, PublishUnchanged: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		publish(t, bus, telemetry.NewFact(in, 1, 1))
	}
	// Settle first: a goroutine of the previous test may still be exiting, and
	// counting it in would make this test's own (lower) final count look wrong.
	baseline := runtime.NumGoroutine()
	for same, deadline := 0, time.Now().Add(2*time.Second); same < 100 && time.Now().Before(deadline); same++ {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n != baseline {
			baseline, same = n, 0
		}
	}

	stopFeed := make(chan struct{})
	var feed sync.WaitGroup
	feed.Add(1)
	go func() { // every input keeps publishing while the vertex starts and stops
		defer feed.Done()
		for n := 2; ; n++ {
			for _, in := range inputs {
				select {
				case <-stopFeed:
					return
				default:
				}
				b, _ := telemetry.NewFact(in, int64(n), float64(n)).MarshalBinary()
				if _, err := bus.PublishBatch(context.Background(), string(in), [][]byte{b}); err != nil {
					t.Error(err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	for cycle := 0; cycle < 50; cycle++ {
		if err := v.Start(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-bus.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("no insight publish was attempted")
		}
		stopped := make(chan struct{})
		go func() { v.Stop(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop did not return while a publish was parked")
		}
	}
	calls := bus.calls.Load()
	close(stopFeed)
	feed.Wait()
	for _, in := range inputs {
		publish(t, bus, telemetry.NewFact(in, 0, 0))
	}
	// The goroutines that signalled their exit may still be returning.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after 50 Start/Stop cycles, %d before", n, baseline)
	}
	if got := bus.calls.Load(); got != calls {
		t.Fatalf("%d publishes attempted after Stop returned", got-calls)
	}
	if _, n, err := bus.TopicTail(context.Background(), "sum"); err == nil && n != 0 {
		t.Fatalf("%d insights on the bus, want none", n)
	}
}

// countingClock is a virtual clock that counts its Now calls.
type countingClock struct {
	*sim.Virtual
	nows atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Virtual.Now()
}

// TestInsightStampsOncePerRun: insight time is read once per run. A run of k
// entries that yields k insights calls the vertex clock once, and all k carry
// that stamp; across runs on an advancing clock the stamps never decrease.
// The clock starts at Unix 0, so the first runs' stamp is 0: a vertex that
// took a zero stamp for "not read yet" would read the clock per insight
// there, and fail as one that reads it per insight does.
func TestInsightStampsOncePerRun(t *testing.T) {
	clock := &countingClock{Virtual: sim.NewVirtual(time.Unix(0, 0))}
	bus := stream.NewBroker(0)
	v, err := NewInsightVertex(InsightConfig{Metric: "sum", Inputs: []telemetry.MetricID{"a"}, Builder: Sum, Bus: bus, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	stamp := int64(-1)
	value := 0.0
	for round := 0; round < 3; round++ {
		for k := 1; k <= 8; k++ {
			run := make([]stream.Entry, k)
			for i := range run {
				value++
				run[i] = publish(t, bus, telemetry.NewFact("a", 1, value))
			}
			before := clock.nows.Load()
			v.consume(context.Background(), 0, run, nil)
			if got := clock.nows.Load() - before; got != 1 {
				t.Fatalf("round %d: a run of %d insights read the clock %d times, want 1", round, k, got)
			}
			outs, err := bus.Range(context.Background(), "sum", last+1, 1<<62, 0)
			if err != nil || len(outs) != k {
				t.Fatalf("round %d: a run of %d entries published %d insights (%v)", round, k, len(outs), err)
			}
			last = outs[len(outs)-1].ID
			for i, e := range outs {
				var out telemetry.Info
				if err := out.UnmarshalBinary(e.Payload); err != nil {
					t.Fatal(err)
				}
				if i == 0 && out.Timestamp < stamp || i > 0 && out.Timestamp != stamp {
					t.Fatalf("round %d, run of %d: insight %d stamped %d after %d", round, k, i, out.Timestamp, stamp)
				}
				stamp = out.Timestamp
			}
		}
		clock.Advance(time.Millisecond)
	}
	if stamp != int64(2*time.Millisecond) {
		t.Fatalf("last stamp %d, want the clock's %d", stamp, 2*time.Millisecond)
	}
}
