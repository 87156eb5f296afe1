package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/archive"
	"repro/internal/telemetry"
)

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	w.Close()
	return <-out
}

// checkSpans: the empty tier's SPAN is "-", the other one's is its timestamps,
// and no row reads the zero timestamp as a date.
func checkSpans(t *testing.T, out string) {
	t.Helper()
	if strings.Contains(out, "1970-01-01T00:00:00Z") {
		t.Fatalf("a tier with no record prints the epoch as its span:\n%s", out)
	}
	var empty, full bool
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "empty":
			empty = f[len(f)-1] == "-"
		case len(f) > 0 && f[0] == "full":
			full = strings.HasSuffix(line, "2023-11-14T22:13:20Z .. 2023-11-14T22:13:21Z")
		}
	}
	if !empty || !full {
		t.Fatalf("want SPAN - for metric empty and the two timestamps for metric full:\n%s", out)
	}
}

// TestRetentionSpanOfEmptyTier: an archive directory written by an older
// apollod holds, for every metric, an active segment with no record in it;
// both forms of the retention command used to print
// 1970-01-01T00:00:00Z .. 1970-01-01T00:00:00Z as its span.
func TestRetentionSpanOfEmptyTier(t *testing.T) {
	const first, last = 1_700_000_000_000_000_000, 1_700_000_001_000_000_000

	t.Run("directory", func(t *testing.T) {
		root := t.TempDir()
		// A log creates its segment with the first block now, so the empty
		// one is written by hand.
		if err := os.Mkdir(filepath.Join(root, "empty"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "empty", "segment-00000000.blk"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := archive.Open(filepath.Join(root, "full"), archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []int64{first, last} {
			if err := l.Append(telemetry.NewFact("full", ts, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		checkSpans(t, captureStdout(t, func() { runRetention([]string{root}, "") }))
	})

	t.Run("gateway", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(apiv1.RetentionResponse{Metrics: []apiv1.RetentionMetric{
				{Metric: "empty", Tiers: []apiv1.RetentionTier{{Tier: "raw", Files: 1}}},
				{Metric: "full", Tiers: []apiv1.RetentionTier{{Tier: "raw", Files: 1, Bytes: 64, Records: 2, FirstTimestampNS: first, LastTimestampNS: last}}},
			}})
		}))
		defer srv.Close()
		g := gatewayClient{addr: strings.TrimPrefix(srv.URL, "http://")}
		checkSpans(t, captureStdout(t, g.retention))
	})
}

// TestRetentionApplyAddsNoSegment: each -apply pass opens and closes every
// log it compacts, which used to leave one empty raw segment and its sidecar
// behind per log per pass.
func TestRetentionApplyAddsNoSegment(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "m")
	l, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := int64(0); i < 4; i++ {
		if err := l.Append(telemetry.NewFact("m", now+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rawFiles := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "segment-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := rawFiles()
	for i := 0; i < 2; i++ {
		captureStdout(t, func() { runRetention([]string{root}, "raw=1h") })
	}
	if after := rawFiles(); len(after) != len(before) {
		t.Fatalf("two -apply passes took the raw tier from %v to %v", before, after)
	}
}
