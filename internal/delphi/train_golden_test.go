package delphi

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// goldenTrain is what cmd/delphi-train and the pipeline benchmark fit.
var goldenTrain = TrainOptions{Seed: 1, Epochs: 60, SeriesPerFeature: 10, SeriesLen: 400, Noise: 0.2}

func modelHash(t *testing.T, m *Model) string {
	t.Helper()
	b, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTrainGolden pins the trained weights bit for bit. The hashes were
// captured at the commit before the training step stopped allocating and the
// heads were fitted concurrently: the arithmetic and its order are part of the
// contract (every scenario digest downstream hangs off these weights), and
// the core count is not.
func TestTrainGolden(t *testing.T) {
	const (
		wantCmd     = "49c23e58dd4f8d18eae5dedcb14df11a84639c16c1b7296c58e0f0bf0de02254"
		wantZero    = "2149dd92f42bf6554c8f38090a3c57886430fe2d346beaba551c7e79e30b7771"
		wantRetrain = "07ebd74440cefc885ffa0caf3e9c6657b91408feeeac918c061604660bed1a1d"
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		m, err := Train(goldenTrain)
		if err != nil {
			t.Fatal(err)
		}
		if got := modelHash(t, m); got != wantCmd {
			t.Errorf("GOMAXPROCS=%d: delphi-train options hash %s, want %s", procs, got, wantCmd)
		}
	}
	m, err := Train(TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := modelHash(t, m); got != wantZero {
		t.Errorf("zero-value options hash %s, want %s", got, wantZero)
	}
	cand, _, err := RetrainCombiner(trained(t), squareSegments(256, 40, 60), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := modelHash(t, cand); got != wantRetrain {
		t.Errorf("retrain candidate hash %s, want %s", got, wantRetrain)
	}
}

// TestTrainProgressOrder: the heads are fitted side by side, but the caller
// hears about them one at a time, in stacking order, on its own goroutine.
func TestTrainProgressOrder(t *testing.T) {
	goroutine := func() string { // "goroutine 7 "
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		return string(buf[:strings.IndexByte(string(buf), '[')])
	}
	caller := goroutine()
	var lines []string
	_, err := Train(TrainOptions{Seed: 3, Epochs: 2, SeriesPerFeature: 2, SeriesLen: 60,
		OnProgress: func(msg string) {
			if g := goroutine(); g != caller {
				t.Errorf("OnProgress(%q) on %s, want the caller's %s", msg, g, caller)
			}
			lines = append(lines, msg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != NumStacked+1 {
		t.Fatalf("%d progress lines, want %d: %q", len(lines), NumStacked+1, lines)
	}
	for i, f := range StackedFeatures() {
		if !strings.Contains(lines[i], f.String()+" ") {
			t.Errorf("line %d = %q, want the %s model", i, lines[i], f)
		}
	}
	if !strings.HasPrefix(lines[NumStacked], "combiner") {
		t.Errorf("last line = %q, want the combiner", lines[NumStacked])
	}
}
