// Package scenario composes the sim layer with the real system into seeded,
// fully deterministic simulations: Run drives the pipeline (sampler hook ->
// Fact Vertex -> Delphi -> Insight Vertex -> archive -> query) through a
// sim.Schedule of faults, RunFabric a three-node replicated fabric through
// leader kills and partitions, RunDrift a regime shift through detection,
// retraining and promotion, and RunGateway the public edge's fan-out. Each
// checks its invariants while it goes and returns, through one kit, a
// byte-for-byte reproducible transcript plus its digest as the replayable
// failure artifact.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/delphi"
)

// Result is what every runner reports besides its own counters. Transcript
// is the replayable artifact: re-running with the same seed reproduces it
// byte for byte, and Digest is its sha256 (the one-line fingerprint to
// compare across runs).
type Result struct {
	Transcript string
	Digest     string
	// Violations lists broken invariants (empty on a healthy run).
	Violations []string
	// Elapsed is how much virtual time the run covered (wall time for
	// RunGateway, whose transcript never holds it).
	Elapsed time.Duration
}

// transcript is a run's narrative and the invariants it broke, written from
// the runner's one goroutine. A broken invariant is appended to the
// transcript and surfaced in Result.Violations, so it is both machine- and
// diff-visible.
type transcript struct {
	b          strings.Builder
	violations []string
}

// line appends one formatted line.
func (tr *transcript) line(format string, args ...any) {
	fmt.Fprintf(&tr.b, format, args...)
	tr.b.WriteByte('\n')
}

// logf appends one line stamped with the virtual time at. The runner reads
// the clock, so a tick's lines can share the stamp of its start.
func (tr *transcript) logf(at time.Duration, format string, args ...any) {
	fmt.Fprintf(&tr.b, "t=%s ", at)
	tr.line(format, args...)
}

func (tr *transcript) failf(format string, args ...any) {
	tr.violations = append(tr.violations, fmt.Sprintf(format, args...))
}

// checkMonotoneID enforces strictly-increasing per-topic entry IDs as seen by
// the consumer (the broker assigns contiguous IDs; any regression means
// reordering or replay without dedup).
func (tr *transcript) checkMonotoneID(topic string, last, got uint64) {
	if got <= last {
		tr.failf("monotone-id: topic %s delivered id %d after %d", topic, got, last)
	}
}

// seal closes the transcript with "end <summary> violations=N" and one line
// per violation, and returns the Result together with the runner's error:
// non-nil when any invariant broke. The Result is always valid for
// inspection.
func (tr *transcript) seal(elapsed time.Duration, summary string, args ...any) (Result, error) {
	tr.line("end "+summary+" violations=%d", append(args, len(tr.violations))...)
	for _, v := range tr.violations {
		tr.line("violation %s", v)
	}
	r := Result{Transcript: tr.b.String(), Violations: tr.violations, Elapsed: elapsed}
	sum := sha256.Sum256([]byte(r.Transcript))
	r.Digest = hex.EncodeToString(sum[:])
	if len(r.Violations) > 0 {
		return r, fmt.Errorf("scenario: %d invariant violation(s); first: %s", len(r.Violations), r.Violations[0])
	}
	return r, nil
}

// The seed-7 Delphi models the runners predict with, each trained once per
// process. driftModel is better trained than quickModel: the drift detector
// runs at its default threshold, so the base model must track the stable ramp
// well below it while still failing on the shifted square wave.
var (
	quickModel = sync.OnceValues(func() (*delphi.Model, error) {
		return delphi.Train(delphi.TrainOptions{SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Noise: 0.2, Seed: 7})
	})
	driftModel = sync.OnceValues(func() (*delphi.Model, error) {
		return delphi.Train(delphi.TrainOptions{SeriesPerFeature: 3, SeriesLen: 150, Epochs: 15, Seed: 7})
	})
)

// scratch returns the model a run predicts with and the run's private temp
// dir, which the returned func removes. The transcript never mentions the dir.
func scratch(model func() (*delphi.Model, error)) (*delphi.Model, string, func(), error) {
	m, err := model()
	if err != nil {
		return nil, "", nil, fmt.Errorf("scenario: training delphi: %w", err)
	}
	dir, err := os.MkdirTemp("", "apollo-sim-*")
	if err != nil {
		return nil, "", nil, fmt.Errorf("scenario: temp dir: %w", err)
	}
	return m, dir, func() { os.RemoveAll(dir) }, nil
}
