package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// -update rewrites testdata/digests.golden from this run instead of checking
// against it.
var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.golden")

// digestsGolden holds one "runner seed digest" row per runner in the table and
// seed in pinnedSeeds.
const digestsGolden = "testdata/digests.golden"

var pinnedSeeds = []int64{1, 2, 42}

// TestScenarioDigestsPinned runs every runner at every pinned seed and
// requires the digests recorded in testdata/digests.golden, so a change that
// claims to leave the simulated system's behaviour alone is checked, not
// asserted. The digests are pinned on amd64 only: the transcripts print
// floating-point forecasts, and the compiler may fuse multiply-adds on other
// architectures.
func TestScenarioDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateDigests {
		t.Skipf("digests are pinned on amd64; this is %s", runtime.GOARCH)
	}
	var b strings.Builder
	for _, sc := range scenarios {
		for _, seed := range pinnedSeeds {
			fmt.Fprintf(&b, "%s %d %s\n", sc.name, seed, runOK(t, sc.run, seed).Digest)
		}
	}
	got := b.String()
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsGolden)
	if err != nil {
		t.Fatalf("%v (go test -run TestScenarioDigestsPinned -update writes it)", err)
	}
	if got != string(want) {
		t.Fatalf("scenario digests moved (go test -run TestScenarioDigestsPinned -update rewrites %s if that is intended):\n--- want ---\n%s--- got ---\n%s",
			digestsGolden, want, got)
	}
}
