package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// modelLog is the reference the chunked topic log is checked against: a plain
// slice of privately copied entries with the same ID, retention, epoch and
// truncation rules, and none of the chunking.
type modelLog struct {
	entries         []Entry // firstID..nextID-1
	firstID, nextID uint64
	epoch, evicted  uint64
	retention       int
}

func (m *modelLog) append(p []byte) {
	m.entries = append(m.entries, Entry{ID: m.nextID, Payload: bytes.Clone(p)})
	m.nextID++
	if len(m.entries) > m.retention {
		m.entries = m.entries[1:]
		m.firstID++
		m.evicted++
	}
}

func (m *modelLog) replicate(epoch uint64, es []Entry) (uint64, error) {
	for _, e := range es {
		if len(e.Payload) == 0 {
			return 0, ErrEmptyPayload
		}
	}
	if epoch < m.epoch {
		return m.nextID - 1, ErrEpochFenced
	}
	if epoch > m.epoch {
		m.epoch = epoch
		if from := m.nextID; len(es) > 0 && es[0].ID < from {
			from = es[0].ID
			if from <= m.firstID { // the cut takes the whole window
				m.entries, m.firstID = nil, from
			}
			m.entries, m.nextID = m.entries[:from-m.firstID], from
		}
	}
	for _, e := range es {
		if e.ID > m.nextID {
			return m.nextID - 1, ErrReplicaGap
		}
		if e.ID == m.nextID {
			m.append(e.Payload)
		}
	}
	return m.nextID - 1, nil
}

func (m *modelLog) rng(from, to uint64, max int) ([]Entry, error) {
	if from < m.firstID && from < m.nextID && m.firstID > 1 {
		return nil, ErrEvicted
	}
	var out []Entry
	for _, e := range m.entries {
		if e.ID >= from && e.ID <= to && (max <= 0 || len(out) < max) {
			out = append(out, e)
		}
	}
	return out, nil
}

func sameEntries(got, want []Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Payload, want[i].Payload) {
			return fmt.Errorf("entry %d: id %d (%d bytes), want id %d (%d bytes)",
				i, got[i].ID, len(got[i].Payload), want[i].ID, len(want[i].Payload))
		}
	}
	return nil
}

// TestTopicLogModel drives one topic through seeded random publishes,
// replicated appends (duplicates, gaps, stale epochs, conflicting tails, cuts
// below the retention window, at either edge of a chunk, inside a sealed
// chunk and just past one) and every read, with payloads up to and past what
// a chunk's 16-bit offsets reach and runs of telemetry tuples that seal, and
// requires the chunked log to agree with modelLog on IDs, bytes, errors and
// evictions at every step, and the log_bytes gauge with its chunks.
func TestTopicLogModel(t *testing.T) {
	for _, retention := range []int{1, 7, 1000} {
		t.Run(fmt.Sprintf("retention=%d", retention), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retention)))
			reg := obs.NewRegistry()
			b := NewBroker(retention)
			b.Instrument(reg)
			defer b.Close()
			ctx := context.Background()
			parked, cancel := context.WithCancel(ctx) // a read with nothing to return comes back with Canceled
			cancel()
			m := &modelLog{firstID: 1, nextID: 1, retention: retention}
			// A read of the empty topic opens it, so every later read finds a log.
			if got, err := b.ConsumeBatch(parked, "t", 0, 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("ConsumeBatch of an empty topic: %v, %v", got, err)
			}
			tp, _ := b.topicFor("t", false)

			// In runs of about 1 500 the payloads are telemetry tuples, so
			// that chunks fill with them and seal: mostly of one metric, one
			// in ten of a second (a chunk holding both seals with two names),
			// and about one in 700 a tuple no frame reproduces byte for byte —
			// one trailing byte, a damaged CRC, a Kind of 16 — which keeps
			// its chunk raw. Between the runs they are bytes of any length.
			tuples, in := true, telemetry.NewFact("", 1_700_000_000_000_000_000, 1000)
			payload := func() []byte {
				if rng.Intn(1500) == 0 {
					tuples = !tuples
				}
				if tuples {
					in.Metric = "m.a"
					if rng.Intn(10) == 0 {
						in.Metric = "m.b"
					}
					in.Timestamp += 5_000_000
					in.Value += rng.NormFloat64()
					odd, damage := in, rng.Intn(2000)
					if damage == 2 {
						odd.Kind = 16
					}
					p, _ := odd.MarshalBinary()
					switch damage {
					case 0:
						p = append(p, 0)
					case 1:
						p[len(p)-1-rng.Intn(4)] ^= 0x40
					}
					return p
				}
				n := 1 + rng.Intn(64)
				switch rng.Intn(200) {
				case 0:
					n = maxChunk + rng.Intn(2*maxChunk+1) // a chunk of its own
				case 1, 2, 3:
					n = 1 + rng.Intn(maxChunk/4) // a few fill a chunk
				case 4:
					n = maxChunk // fills a chunk to the byte
				case 5:
					n = maxChunk + 1
				case 6:
					n = 1<<16 + rng.Intn(maxChunk) // longer than a 16-bit offset reaches
				}
				p := make([]byte, n)
				rng.Read(p)
				return p
			}
			run := func(from uint64, n int) []Entry {
				es := make([]Entry, n)
				for i := range es {
					es[i] = Entry{ID: from + uint64(i), Payload: payload()}
				}
				return es
			}
			back := func() uint64 { // an ID at or a little before the tail, never 0
				return m.nextID - uint64(rng.Int63n(int64(min(m.nextID, 12))))
			}

			sealedSeen := false
			for step := 0; step < 1500; step++ {
				var err error
				switch op := rng.Intn(10); op {
				case 0, 1:
					p := payload()
					var id uint64
					if id, err = b.Publish(ctx, "t", p); err == nil && id != m.nextID {
						err = fmt.Errorf("Publish id %d, want %d", id, m.nextID)
					}
					m.append(p)
				case 2, 3:
					ps := make([][]byte, 1+rng.Intn(40))
					for i := range ps {
						ps[i] = payload()
					}
					var id uint64
					if id, err = b.PublishBatch(ctx, "t", ps); err == nil && id != m.nextID {
						err = fmt.Errorf("PublishBatch id %d, want %d", id, m.nextID)
					}
					for _, p := range ps {
						m.append(p)
					}
				case 4, 5, 6:
					epoch, es := m.epoch, run(m.nextID, 1+rng.Intn(5))
					switch rng.Intn(10) {
					case 0: // duplicates, then new entries
						es = run(back(), 1+rng.Intn(20))
					case 1: // a hole before the batch, or inside it
						es = append(es, run(es[len(es)-1].ID+2, 2)...)
						if rng.Intn(2) == 0 {
							es = es[len(es)-2:]
						}
					case 2: // a deposed leader
						if epoch > 0 {
							epoch--
						}
					case 3: // a new leader whose log conflicts with this tail
						epoch, es = epoch+1, run(back(), 1+rng.Intn(20))
					case 4: // a new leader whose log starts below this window
						if m.firstID > 1 {
							epoch, es = epoch+1, run(1+uint64(rng.Int63n(int64(m.firstID-1))), 1+rng.Intn(5))
						}
					case 5: // epoch beacon
						epoch, es = epoch+1, nil
					case 6: // an entry no leader could have acked
						es[rng.Intn(len(es))].Payload = nil
					case 7: // a new leader whose log cuts at the first or the last entry of a chunk
						if len(tp.chunks) > 0 {
							c := tp.chunks[rng.Intn(len(tp.chunks))]
							cut := c.first + uint64(rng.Intn(2)*(c.len()-1))
							epoch, es = epoch+1, run(cut, 1+rng.Intn(5))
						}
					case 8: // a new leader whose log cuts inside a sealed chunk, or just past one
						var sealed []chunk
						for _, c := range tp.chunks {
							if c.starts == nil {
								sealed = append(sealed, c)
							}
						}
						if len(sealed) > 0 {
							c := sealed[rng.Intn(len(sealed))]
							cut := c.first + 1 + uint64(rng.Intn(c.len()))
							epoch, es = epoch+1, run(cut, 1+rng.Intn(5))
						}
					}
					wantTail, wantErr := m.replicate(epoch, es)
					tail, gotErr := b.ReplicateAppend(ctx, "t", epoch, es)
					if tail != wantTail || !errors.Is(gotErr, wantErr) {
						err = fmt.Errorf("ReplicateAppend(epoch %d, %d entries) = (%d, %v), want (%d, %v)",
							epoch, len(es), tail, gotErr, wantTail, wantErr)
					}
				case 7:
					from := uint64(rng.Int63n(int64(m.nextID + 3)))
					to := from + uint64(rng.Intn(50))
					lim := rng.Intn(20) - 5
					want, wantErr := m.rng(from, to, lim)
					got, gotErr := b.Range(ctx, "t", from, to, lim)
					if !errors.Is(gotErr, wantErr) {
						err = fmt.Errorf("Range(%d, %d, %d) err %v, want %v", from, to, lim, gotErr, wantErr)
					} else if err = sameEntries(got, want); err != nil {
						err = fmt.Errorf("Range(%d, %d, %d): %w", from, to, lim, err)
					}
				case 8:
					after := uint64(rng.Int63n(int64(m.nextID + 2)))
					lim := rng.Intn(20) - 5
					want, _ := m.rng(max(after+1, m.firstID), m.nextID, lim)
					got, gotErr := b.ConsumeBatch(parked, "t", after, lim)
					if len(want) == 0 {
						if !errors.Is(gotErr, context.Canceled) {
							err = fmt.Errorf("ConsumeBatch(after %d) with nothing to read: %v, %v", after, got, gotErr)
						}
					} else if err = sameEntries(got, want); err != nil || gotErr != nil {
						err = fmt.Errorf("ConsumeBatch(after %d, max %d): %v, %v", after, lim, err, gotErr)
					}
				case 9:
					got, gotErr := b.Latest(ctx, "t")
					if len(m.entries) == 0 {
						if !errors.Is(gotErr, ErrNoSuchTopic) {
							err = fmt.Errorf("Latest of an empty log: %v, %v", got, gotErr)
						}
					} else if err = sameEntries([]Entry{got}, m.entries[len(m.entries)-1:]); err != nil || gotErr != nil {
						err = fmt.Errorf("Latest: %v, %v", err, gotErr)
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				// The whole visible state, after every step.
				epoch, tail, _ := b.TopicTail(ctx, "t")
				if epoch != m.epoch || tail != m.nextID-1 {
					t.Fatalf("step %d: TopicTail = (%d, %d), want (%d, %d)", step, epoch, tail, m.epoch, m.nextID-1)
				}
				if got := reg.Snapshot().Counter("stream_broker_evicted_total"); got != m.evicted {
					t.Fatalf("step %d: evicted = %d, want %d", step, got, m.evicted)
				}
				held := 0
				for _, c := range tp.chunks {
					held += c.bytes()
					sealedSeen = sealedSeen || c.starts == nil
				}
				if got := reg.Snapshot().Gauge("stream_broker_log_bytes"); got != float64(held) {
					t.Fatalf("step %d: log_bytes = %v, the chunks hold %d", step, got, held)
				}
				got, err := b.Range(ctx, "t", m.firstID, m.nextID, 0)
				if err == nil {
					err = sameEntries(got, m.entries)
				}
				if err != nil {
					t.Fatalf("step %d: retained window: %v", step, err)
				}
			}
			if retention == 1000 && !sealedSeen {
				t.Fatal("no chunk was ever sealed: the draw no longer reaches the sealed form")
			}
		})
	}
}

// TestTopicLogViewsImmutable: an Entry handed to a reader never changes,
// whatever happens to the log afterwards — publishes past retention on one
// topic, and on another a replica whose tail is cut and re-appended with
// different bytes at the same IDs, while chunks are sealed and decoded for
// readers. Readers keep every Entry they ever got and re-check all of them
// at the end; run under -race this also shows no append, seal or cut touches
// bytes a reader can see.
func TestTopicLogViewsImmutable(t *testing.T) {
	b := NewBroker(1024) // several 4 KiB chunks, so that some are sealed
	defer b.Close()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()

	// A view is one (ID, bytes) pair: the replica topic serves the same ID
	// with different bytes after a cut, and the same pair many times over.
	type view struct {
		id  uint64
		sum uint32
	}
	var readers, writers sync.WaitGroup
	kept := make([]map[view]Entry, 4)
	for r := range kept {
		kept[r] = map[view]Entry{}
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var after uint64
			for ctx.Err() == nil {
				topic := "pub" // followed with a cursor
				if r%2 == 1 {
					topic, after = "repl", 0 // the whole window, every time
				}
				es, err := b.ConsumeBatch(ctx, topic, after, 0)
				if err != nil {
					return
				}
				for _, e := range es {
					kept[r][view{e.ID, crc32.ChecksumIEEE(e.Payload)}] = e
				}
				after = es[len(es)-1].ID
			}
		}(r)
	}

	// In runs of 3 000 the payloads are telemetry tuples, so chunks fill with
	// them and seal; between the runs half are the writer's last one with a
	// byte changed and half fresh bytes.
	payload := func(rng *rand.Rand, i int, in *telemetry.Info, last []byte) []byte {
		if i/3000%2 == 0 {
			in.Timestamp += 5_000_000
			in.Value += rng.NormFloat64()
			p, _ := in.MarshalBinary()
			return p
		}
		if len(last) > 0 && rng.Intn(2) == 0 {
			p := bytes.Clone(last)
			p[rng.Intn(len(p))]++
			return p
		}
		p := make([]byte, 1+rng.Intn(300))
		rng.Read(p)
		return p
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		in, last := telemetry.NewFact("pub", 0, 0), []byte(nil)
		for i := 0; i < 20000; i++ {
			last = payload(rng, i, &in, last)
			if _, err := b.Publish(ctx, "pub", last); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(2))
		tail, last := uint64(0), []byte(nil)
		in, n := telemetry.NewFact("repl", 0, 0), 0
		for epoch := uint64(1); epoch <= 4000; epoch++ {
			// Each new leader rewrites up to 8 of the entries the last one
			// appended, then extends the log.
			from := tail + 1 - uint64(rng.Int63n(int64(min(tail, 8)+1)))
			es := make([]Entry, 1+rng.Intn(16))
			for i := range es {
				last, n = payload(rng, n, &in, last), n+1
				es[i] = Entry{ID: from + uint64(i), Payload: last}
			}
			var err error
			if tail, err = b.ReplicateAppend(ctx, "repl", epoch, es); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	stop()
	readers.Wait()

	for r, views := range kept {
		for v, e := range views {
			if crc32.ChecksumIEEE(e.Payload) != v.sum {
				t.Fatalf("reader %d: entry %d changed after it was handed out", r, v.id)
			}
		}
		if len(views) < 100 {
			t.Errorf("reader %d kept only %d entries", r, len(views))
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first may only finish a cycle already under way
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// emptyTopics creates n topics the way any wire peer can: a consume on a
// name nobody publishes to.
func emptyTopics(b *Broker, n int) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < n; i++ {
		b.ConsumeBatch(ctx, fmt.Sprintf("empty%06d", i), 0, 1)
	}
}

// zeroTuples, tuples and randomTuples generate 28-byte payloads, a telemetry
// tuple's wire size: all zeros; telemetry-encoded facts of one metric every
// 5 ms, each with its CRC, whose value walks the way the pipeline
// benchmark's traces do (from 1000-1100, standard normal steps); and
// incompressible bytes. delphiTuples generates what a Fact vertex with Delphi
// publishes: every 20 ms one measured fact, whose value walks as in tuples,
// then three predicted ones 5 ms apart, forecasts scattered about it.
func zeroTuples(int64) func() []byte {
	p := make([]byte, 28)
	return func() []byte { return p }
}

func tuples(seed int64) func() []byte {
	rng := rand.New(rand.NewSource(seed))
	in := telemetry.NewFact("cpu0", 1_700_000_000_000_000_000, 1000+100*rng.Float64())
	in.MarshalBinary() // the first encode builds the CRC table: not the log's memory
	return func() []byte {
		in.Timestamp += 5_000_000
		in.Value += rng.NormFloat64()
		p, _ := in.MarshalBinary()
		return p
	}
}

func delphiTuples(seed int64) func() []byte {
	rng := rand.New(rand.NewSource(seed))
	measured := 1000 + 100*rng.Float64()
	in := telemetry.NewFact("cpu0", 1_700_000_000_000_000_000, measured)
	in.MarshalBinary()
	i := 0
	return func() []byte {
		in.Timestamp += 5_000_000
		if i%4 == 0 {
			measured += rng.NormFloat64()
			in.Value, in.Source = measured, telemetry.Measured
		} else {
			in.Value, in.Source = measured+rng.NormFloat64()/4, telemetry.Predicted
		}
		i++
		p, _ := in.MarshalBinary()
		return p
	}
}

func randomTuples(seed int64) func() []byte {
	rng := rand.New(rand.NewSource(seed))
	return func() []byte {
		p := make([]byte, 28)
		rng.Read(p)
		return p
	}
}

// partialFill is about how many entries a topic of the pipeline benchmark's
// ingest-inproc workload holds at the end of its measured window, well short
// of DefaultRetention: there the raw newest chunks are a large share of a
// topic's memory.
const partialFill = 6000

// fillTopic publishes n payloads made by next.
func fillTopic(tb testing.TB, b *Broker, topic string, n int, next func() []byte) {
	for i := 0; i < n; i++ {
		if _, err := b.Publish(context.Background(), topic, next()); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestTopicLogFootprint keeps the broker's memory proportional to what it
// holds: an empty topic costs its bookkeeping, not a reserved retention
// window, and a filled one about its bytes — telemetry tuples sealed to at
// most 9.5 B each at full retention and 10 B each in a topic partly filled
// with Delphi-shaped tuples, incompressible ones no worse off than raw. The
// partial fill read 10.7 B while the chunk before the tail stayed raw until
// the next one opened and each flip between measured and predicted cost a
// meta run in the block frame. Each reading is the smallest of three fresh
// fills, so that the runtime's own few KB of heap noise cannot fail it.
func TestTopicLogFootprint(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()

	base := liveHeap()
	emptyTopics(b, 1000)
	if got := int64(liveHeap() - base); got > 1<<20 {
		t.Errorf("1000 empty topics hold %d bytes of live heap, want < 1 MiB", got)
	}

	const limit = DefaultRetention*32 + maxChunk
	base = liveHeap()
	fillTopic(t, b, "full", DefaultRetention, zeroTuples(0))
	if got := int64(liveHeap() - base); got > limit {
		t.Errorf("a topic filled to retention holds %d bytes, want < %d", got, limit)
	}
	// Nor does it grow once retention starts releasing chunks.
	fillTopic(t, b, "full", 2*DefaultRetention+100, zeroTuples(0))
	if got := int64(liveHeap() - base); got > limit {
		t.Errorf("a topic at steady state holds %d bytes, want < %d", got, limit)
	}
	for _, fill := range []struct {
		topic string
		next  func(int64) func() []byte
		n     int
		limit int64
	}{
		{"tuples", tuples, DefaultRetention, DefaultRetention * 19 / 2},
		{"partial", delphiTuples, partialFill, partialFill * 10},
		{"random", randomTuples, DefaultRetention, limit},
	} {
		got := int64(math.MaxInt64)
		for try := 0; try < 3; try++ {
			base = liveHeap()
			fillTopic(t, b, fmt.Sprint(fill.topic, try), fill.n, fill.next(1))
			got = min(got, int64(liveHeap()-base))
		}
		if got > fill.limit {
			t.Errorf("the %s fill (%d entries) holds %d bytes, want < %d", fill.topic, fill.n, got, fill.limit)
		}
	}
	runtime.KeepAlive(b)
}

// TestSealedChunkSlot: a sealed chunk's slot in its topic's chunk list — the
// per-chunk cost every retained frame pays beside its bytes — stays within
// 40 B: the frame's slice and first ID, and a nil pointer where a raw chunk
// keeps its offsets.
func TestSealedChunkSlot(t *testing.T) {
	if size := unsafe.Sizeof(chunk{}); size > 40 {
		t.Errorf("a chunk slot is %d B, want <= 40", size)
	}
}

// TestRangeSealedAllocs: a read of sealed history decodes every chunk it
// reads through one block.Reader into arrays sized once, so it allocates at
// most twice per sealed chunk (its payloads and their offsets) beside a
// fixed few: the result slice, the one name in the decoder's metric
// dictionary, and the dictionary, which block.Reader grows with slices.Grow
// (twice over under the race detector, which turns off the compiler's
// allocation-free append of a make).
func TestRangeSealedAllocs(t *testing.T) {
	const from, to, fixed = 1, 4800, 4
	b := NewBroker(0)
	defer b.Close()
	fillTopic(t, b, "t", 8000, tuples(1))
	tp, _ := b.topicFor("t", false)
	sealed := 0
	for _, c := range tp.chunks {
		if c.first > to {
			break
		}
		if c.starts != nil {
			t.Fatalf("the chunk from id %d is raw; want ids %d..%d sealed", c.first, from, to)
		}
		sealed++
	}
	ctx := context.Background()
	n := testing.AllocsPerRun(20, func() {
		if es, err := b.Range(ctx, "t", from, to, 0); err != nil || len(es) != to-from+1 {
			t.Fatalf("Range = %d entries, %v", len(es), err)
		}
	})
	if n > float64(2*sealed+fixed) {
		t.Errorf("Range over %d sealed chunks allocates %v times, want <= %d", sealed, n, 2*sealed+fixed)
	}
}
