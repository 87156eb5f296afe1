package archive

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Tests of what Range caches between calls: the data-file table and the
// active segment's read handle.

// checkFileTable requires the cached table (built by the Range the caller
// just ran) to be what a fresh listing joined with the index map gives.
func checkFileTable(t *testing.T, l *Log, step string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	refs, err := l.scanRefs()
	if err != nil {
		t.Fatal(err)
	}
	if l.files == nil || len(l.files) != len(refs) {
		t.Fatalf("%s: cached table has %d rows, directory lists %d (%v)", step, len(l.files), len(refs), refs)
	}
	for i, r := range refs {
		if l.files[i].ref != r || l.files[i].si != l.idx[r] {
			t.Fatalf("%s: cached row %d = %+v, want %+v with index %p", step, i, l.files[i], r, l.idx[r])
		}
	}
}

func modelRange(model []telemetry.Info, from, to int64) []telemetry.Info {
	var out []telemetry.Info
	for _, in := range model {
		if in.Timestamp >= from && in.Timestamp <= to {
			out = append(out, in)
		}
	}
	return out
}

// TestRangeModel drives one log through a seeded schedule of appends (small
// segments, so rotations), compaction, pruning, a seal failure with its
// recovery, and close-and-reopen, and requires after every step that Range
// equals a plain slice filtered by the window and that the cached file table
// equals the directory.
func TestRangeModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			recSize := int64(len(mustMarshal(t, telemetry.NewFact("m", 0, 0))))
			opts := Options{SegmentBytes: 24 * recSize}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			reg := obs.NewRegistry()
			l.Instrument(reg, "t")

			var model []telemetry.Info
			ts := int64(100)
			add := func() error {
				switch rng.Intn(40) {
				case 0:
					ts -= int64(rng.Intn(3)) // an unsorted segment now and then
				case 1, 2, 3:
					// a repeated timestamp
				default:
					ts += 1 + int64(rng.Intn(4))
				}
				in := telemetry.NewFact("m", ts, float64(len(model)))
				if err := l.Append(in); err != nil {
					return err
				}
				model = append(model, in)
				return nil
			}
			check := func(step string) {
				t.Helper()
				from := ts - int64(rng.Intn(400))
				for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {from, from + int64(rng.Intn(200))}, {ts - 3, ts}} {
					got := rangeAll(t, l, w[0], w[1])
					if want := modelRange(model, w[0], w[1]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Range(%d, %d) returned %d tuples, model has %d\n got %v\nwant %v", step, w[0], w[1], len(got), len(want), got, want)
					}
				}
				checkFileTable(t, l, step)
			}

			for step := 0; step < 400; step++ {
				name := ""
				switch op := rng.Intn(20); {
				case op < 12:
					name = "append"
					for n := 1 + rng.Intn(20); n > 0; n-- {
						if err := add(); err != nil {
							t.Fatalf("step %d append: %v", step, err)
						}
					}
				case op < 15:
					name = "compact"
					if _, err := l.Compact(0, Retention{}); err != nil {
						t.Fatalf("step %d compact: %v", step, err)
					}
				case op < 17:
					// A directory squatting on the sidecar path fails the next
					// rotation after its flush: the log wedges with every tuple
					// on disk, and the Append after the path clears recovers
					// onto a fresh segment.
					name = "wedge"
					l.mu.Lock()
					squat := filepath.Join(dir, indexName(l.curIndex))
					l.mu.Unlock()
					if err := os.Mkdir(squat, 0o755); err != nil {
						t.Fatal(err)
					}
					for add() == nil {
					}
					check(fmt.Sprintf("step %d wedged", step))
					if err := os.Remove(squat); err != nil {
						t.Fatal(err)
					}
					if err := add(); err != nil {
						t.Fatalf("step %d recovery: %v", step, err)
					}
				default:
					name = "reopen"
					if err := l.Close(); err != nil {
						t.Fatalf("step %d close: %v", step, err)
					}
					check(fmt.Sprintf("step %d closed", step))
					if l, err = Open(dir, opts); err != nil {
						t.Fatalf("step %d reopen: %v", step, err)
					}
					l.Instrument(reg, "t")
				}
				check(fmt.Sprintf("step %d %s", step, name))
			}
			if c := reg.Counter(obs.Name("archive_corrupt_records_total", "log", "t")).Value(); c != 0 {
				t.Fatalf("%d corrupt records on a log nobody damaged", c)
			}
		})
	}
}

// TestRangeWhileRotating (run with -race): readers scan the whole log while
// an appender rotates the active segment under them and a compactor rewrites
// what it seals. Every scan must be an exact prefix of what was appended —
// no error, nothing lost, nothing twice — at least as long as the log was
// when the scan began, and so must every Aggregate's fold.
func TestRangeWhileRotating(t *testing.T) {
	recSize := int64(len(mustMarshal(t, telemetry.NewFact("m", 0, 0))))
	l, err := Open(t.TempDir(), Options{SegmentBytes: 40 * recSize})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const total = 6000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last scan sees everything
				default:
				}
				floor := int64(l.Appended())
				want := int64(1)
				err := l.Range(math.MinInt64, math.MaxInt64, func(in telemetry.Info) error {
					if in.Timestamp != want {
						return fmt.Errorf("tuple %d where %d belongs", in.Timestamp, want)
					}
					want++
					return nil
				})
				if err != nil || want-1 < floor {
					t.Errorf("scan ended at %d, log held %d when it began: %v", want-1, floor, err)
					return
				}
				floor = int64(l.Appended())
				s, err := l.Aggregate(math.MinInt64, math.MaxInt64)
				if n := s.Count; err != nil || n < floor || n > 0 && (s.First != 1 || s.Last != n || s.Min != 1 || s.Max != float64(n) || s.Sum != float64(n*(n+1)/2)) {
					t.Errorf("aggregate %+v, log held %d when it began: %v", s, floor, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := l.Compact(0, Retention{}); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	for ts := int64(1); ts <= total; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := rangeAll(t, l, math.MinInt64, math.MaxInt64); len(got) != total {
		t.Fatalf("final scan saw %d of %d tuples", len(got), total)
	}
}

// TestArchiveAppendAllocs: at steady state an append allocates nothing — the
// record is encoded into a buffer the log owns. (The parent marshalled each
// record into a slice of its own: 1.)
func TestArchiveAppendAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ts := int64(0)
	if n := testing.AllocsPerRun(2000, func() {
		ts++
		if err := l.Append(telemetry.NewFact("node01.nvme0.capacity_total", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", n)
	}
}

// TestRangeAllocs measures what a Range of the active segment allocates: the
// metric name of the one Info it decodes over — a constant, whatever the
// number of records read. (The parent listed the directory, opened the file
// and allocated a name per record: ~1 300 for the larger window.)
func TestRangeAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for ts := int64(1); ts <= 2000; ts++ {
		if err := l.Append(telemetry.NewFact("node01.nvme0.capacity_total", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(from, to int64) float64 {
		n := 0
		fn := func(telemetry.Info) error { n++; return nil }
		allocs := testing.AllocsPerRun(50, func() {
			if err := l.Range(from, to, fn); err != nil {
				t.Fatal(err)
			}
		})
		if want := int(to-from+1) * 51; n != want {
			t.Fatalf("Range(%d, %d) visited %d tuples over 51 runs, want %d", from, to, n, want)
		}
		return allocs
	}
	small, large := measure(500, 599), measure(500, 1499)
	t.Logf("allocs per Range: %v over 100 records, %v over 1000", small, large)
	if small != large || large > 2 {
		t.Fatalf("Range allocates %v over 100 records and %v over 1000, want the same small constant (<= 2)", small, large)
	}
}
