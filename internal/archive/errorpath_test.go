package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Regression tests for the ISSUE 7 error-path bugs: a failed seal/rotate
// used to leave the log silently writing into a closed segment writer, and a
// later Sync/Close double-closed the dead file.

// failSeal wedges l by closing the active segment file out from under it and
// forcing a seal. The segment's file only exists once a block was written, so
// one goes first. Appends wait in the open block, so the failure surfaces
// when the rotation writes it — an injected rotate failure.
func failSeal(t *testing.T, l *Log, recSize int) {
	t.Helper()
	if err := l.Append(telemetry.NewFact("wedge", 999, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.cur.Close() // simulate the segment fd dying (EBADF on flush)
	l.mu.Unlock()
	var err error
	for i := 0; i < 2*int(l.segmentBytes)/recSize+2; i++ {
		if err = l.Append(telemetry.NewFact("wedge", int64(1000+i), 1)); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("rotation over a closed fd reported no error")
	}
	if !strings.Contains(err.Error(), "seal flush") {
		t.Fatalf("unexpected wedge error: %v", err)
	}
}

// TestAppendRecoversAfterRotateFailure: after a failed rotate the log must
// fail closed — and the next Append must re-arm on a fresh segment instead
// of writing into the dead writer forever.
func TestAppendRecoversAfterRotateFailure(t *testing.T) {
	dir := t.TempDir()
	recSize := len(mustMarshal(t, telemetry.NewFact("wedge", 0, 0)))
	l, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	failSeal(t, l, recSize)

	// Sync on a wedged log must report the wedge, not flush into (and not
	// double-close) the dead fd.
	if err := l.Sync(); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("Sync on wedged log: %v", err)
	}

	// The next Append recovers onto a fresh segment and everything flows
	// again, durable across a reopen.
	for ts := int64(0); ts < 10; ts++ {
		if err := l.Append(telemetry.NewFact("after", ts, float64(ts))); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
	var got int
	if err := l.Replay(func(in telemetry.Info) error {
		if in.Metric == "after" {
			got++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("replayed %d post-recovery records, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatalf("reopen after wedge recovery: %v", err)
	}
	defer re.Close()
	got = 0
	if err := re.Replay(func(in telemetry.Info) error {
		if in.Metric == "after" {
			got++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("reopen replayed %d post-recovery records, want 10", got)
	}
}

// TestCloseAfterSealFailureNoDoubleClose: Close on a wedged log must not
// touch the already-closed writer again; it reports the wedge once and a
// second Close is a clean no-op.
func TestCloseAfterSealFailureNoDoubleClose(t *testing.T) {
	recSize := len(mustMarshal(t, telemetry.NewFact("wedge", 0, 0)))
	l, err := Open(t.TempDir(), Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	failSeal(t, l, recSize)
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "seal") {
		t.Fatalf("Close after wedge: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
}

// TestRotateSidecarFailureKeepsData: a rotate whose data flush succeeds but
// whose sidecar write fails (injected by squatting a directory on the
// sidecar path — rename cannot replace a directory, even as root) must keep
// every flushed record readable and recover on the next Append.
func TestRotateSidecarFailureKeepsData(t *testing.T) {
	dir := t.TempDir()
	recSize := len(mustMarshal(t, telemetry.NewFact("m", 0, 0)))
	l, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := os.Mkdir(filepath.Join(dir, indexName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	appended := 0
	var wedgeErr error
	for i := 0; i < 10; i++ {
		if err := l.Append(telemetry.NewFact("m", int64(i), float64(i))); err != nil {
			wedgeErr = err
			break
		}
		appended++
	}
	if wedgeErr == nil || !strings.Contains(wedgeErr.Error(), "seal sidecar") {
		t.Fatalf("rotation over a squatted sidecar path: %v", wedgeErr)
	}
	// Unblock the sidecar path; the next Append self-heals.
	if err := os.Remove(filepath.Join(dir, indexName(0))); err != nil {
		t.Fatal(err)
	}
	for i := appended; i < 10; i++ {
		if err := l.Append(telemetry.NewFact("m", int64(i), float64(i))); err != nil {
			t.Fatalf("append after sidecar recovery: %v", err)
		}
	}
	// The flush succeeded before the sidecar failed, so nothing was lost.
	var got []int64
	if err := l.Replay(func(in telemetry.Info) error { got = append(got, in.Timestamp); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10 (lost flushed data)", len(got))
	}
	seen := make(map[int64]bool)
	for _, ts := range got {
		seen[ts] = true
	}
	for ts := int64(0); ts < 10; ts++ {
		if !seen[ts] {
			t.Fatalf("record ts=%d lost across sidecar failure", ts)
		}
	}
}
