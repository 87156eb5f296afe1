package scenario

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// -sim.seed replays the scenarios from a specific seed: a failure artifact is
// just "go test ./internal/sim/scenario -run TestScenariosReproduce -sim.seed=N".
var simSeed = flag.Int64("sim.seed", 42, "seed for the deterministic scenarios")

type scenario struct {
	name string
	wall time.Duration
	run  func(t *testing.T, seed int64) (Result, error)
}

// scenarios is the one table every runner is checked through. run executes
// the runner at seed, reports any of the runner's own checks that fail, and
// returns its result and error; wall bounds a run's wall time once the
// process's models are trained (0: unbounded).
var scenarios = []scenario{
	{"pipeline", time.Second, func(t *testing.T, seed int64) (Result, error) {
		rep, err := Run(seed)
		if rep == nil {
			t.Fatal(err)
		}
		if rep.Applied < 3 {
			t.Errorf("only %d faults applied, want >= 3:\n%s", rep.Applied, rep.Schedule)
		}
		if rep.Injected == 0 {
			t.Error("schedule applied but no bus operations were faulted")
		}
		if rep.Elapsed < horizon {
			t.Errorf("virtual elapsed %v, want >= %v", rep.Elapsed, horizon)
		}
		if rep.Polls == 0 || rep.Facts == 0 || rep.Insights == 0 {
			t.Errorf("pipeline idle: polls=%d facts=%d insights=%d", rep.Polls, rep.Facts, rep.Insights)
		}
		if rep.Archived == 0 {
			t.Error("no tuples evicted into the archive (history window too large?)")
		}
		if rep.Predicted == 0 {
			t.Error("no Delphi predictions published; AIMD never relaxed?")
		}
		// The predictive path fills skipped ticks and the query pass answers
		// over the merged history+archive.
		hasLines(t, rep.Transcript, "src=predicted", `query "SELECT COUNT(*)`, "fault ")
		return rep.Result, err
	}},
	{"fabric", 2500 * time.Millisecond, func(t *testing.T, seed int64) (Result, error) {
		rep, err := RunFabric(seed)
		if rep == nil {
			t.Fatal(err)
		}
		if rep.Acked == 0 || rep.Entries == 0 {
			t.Errorf("producer never got an ack: acked=%d entries=%d", rep.Acked, rep.Entries)
		}
		if rep.Failovers < 3 {
			t.Errorf("failovers = %d, want >= 3 (leader kill + double failover)", rep.Failovers)
		}
		if rep.Fenced == 0 {
			t.Error("no stale-leader publish was epoch-fenced")
		}
		if rep.Redirects == 0 {
			t.Error("producer followed no not-leader redirects")
		}
		hasLines(t, rep.Transcript, "phase leader-kill", "phase partition", "phase fence", "phase double-failover", "phase chaos")
		return rep.Result, err
	}},
	{"drift", 0, func(t *testing.T, seed int64) (Result, error) {
		rep, err := RunDrift(seed)
		if rep == nil {
			t.Fatal(err)
		}
		if rep.TripPoll < phaseA {
			t.Errorf("trip poll %d, want inside the shifted phase (>= %d)", rep.TripPoll, phaseA)
		}
		if rep.PromotedVersion != 1 {
			t.Errorf("promoted version %d, want 1", rep.PromotedVersion)
		}
		if rep.Suppressed == 0 {
			t.Error("fallback never suppressed a forecast")
		}
		if !(rep.RecoveredErr < rep.ShiftErr) {
			t.Errorf("no recovery: shift=%.4f recovered=%.4f", rep.ShiftErr, rep.RecoveredErr)
		}
		hasLines(t, rep.Transcript, "drift trip poll=", "retrain class=cap", "improved=true", "pred=suppressed")
		return rep.Result, err
	}},
	{"gateway", 0, func(t *testing.T, seed int64) (Result, error) {
		cfg := GatewayConfig{Seed: seed, Subscribers: 50, SlowFraction: 0.2, Tuples: 96, Queue: 32}
		rep, err := RunGateway(cfg)
		if rep == nil {
			t.Fatal(err)
		}
		checkGateway(t, cfg, rep)
		return rep.Result, err
	}},
}

// hasLines reports each marker the transcript does not contain.
func hasLines(t *testing.T, transcript string, markers ...string) {
	t.Helper()
	for _, m := range markers {
		if !strings.Contains(transcript, m) {
			t.Errorf("transcript missing %q:\n%s", m, transcript)
		}
	}
}

// runOK runs one table entry at seed, failing t on an invariant violation
// with the transcript as the failure artifact.
func runOK(t *testing.T, run func(*testing.T, int64) (Result, error), seed int64) Result {
	t.Helper()
	r, err := run(t, seed)
	if err != nil {
		t.Fatalf("seed %d: %v\ntranscript:\n%s", seed, err, r.Transcript)
	}
	return r
}

// scenarioNamed returns the table entry called name.
func scenarioNamed(t *testing.T, name string) scenario {
	t.Helper()
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return scenario{}
}

// noPathLeak fails t if the transcript mentions the temp dir a run used: the
// digest must not depend on where the run's files lived.
func noPathLeak(t *testing.T, r Result) {
	t.Helper()
	for _, leak := range []string{os.TempDir(), "apollo-sim"} {
		if strings.Contains(r.Transcript, leak) {
			t.Fatalf("transcript leaks a path (%q):\n%s", leak, r.Transcript)
		}
	}
}

// reproduce runs sc twice at -sim.seed and requires one transcript byte for
// byte with no invariant broken, whatever GOMAXPROCS is, and no leaked path.
func reproduce(t *testing.T, sc scenario) {
	a := runOK(t, sc.run, *simSeed)
	wall0 := time.Now()
	b := runOK(t, sc.run, *simSeed)
	if wall := time.Since(wall0); sc.wall > 0 && wall > sc.wall {
		t.Errorf("one run took %v wall clock, want < %v", wall, sc.wall)
	}
	if a.Digest != b.Digest || a.Transcript != b.Transcript {
		t.Fatalf("same seed diverged: %s vs %s\n--- A ---\n%s\n--- B ---\n%s",
			a.Digest, b.Digest, a.Transcript, b.Transcript)
	}
	noPathLeak(t, a)
	for _, procs := range []int{1, 8} {
		r := func() Result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return runOK(t, sc.run, *simSeed)
		}()
		if r.Digest != a.Digest {
			t.Fatalf("GOMAXPROCS=%d moved the digest: %s, want %s", procs, r.Digest, a.Digest)
		}
	}
	t.Logf("seed=%d digest=%s", *simSeed, a.Digest)
}

// TestScenariosReproduce is the acceptance gate for the simulation harness:
// every runner in the table reproduces.
func TestScenariosReproduce(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) { reproduce(t, sc) })
	}
}

// TestScenarioReproducible and TestDriftScenarioReproducible replay the
// pipeline and the drift runner alone under the names their gates had
// before the table.
func TestScenarioReproducible(t *testing.T)      { reproduce(t, scenarioNamed(t, "pipeline")) }
func TestDriftScenarioReproducible(t *testing.T) { reproduce(t, scenarioNamed(t, "drift")) }

// TestScenarioExercisesDelphiAndQueries spot-checks one pipeline run: the
// predictive path fills skipped ticks and the query pass answers over the
// merged history+archive (the pipeline entry's own checks).
func TestScenarioExercisesDelphiAndQueries(t *testing.T) {
	runOK(t, scenarioNamed(t, "pipeline").run, *simSeed)
}

// TestDriftScenarioTranscript spot-checks one drift run's narrative (the
// drift entry's own checks) and that no filesystem path leaks into it.
func TestDriftScenarioTranscript(t *testing.T) {
	noPathLeak(t, runOK(t, scenarioNamed(t, "drift").run, *simSeed))
}

// TestScenarioSeedsDiverge guards against a runner ignoring its seed:
// seeds 1 and 2 must produce different transcripts.
func TestScenarioSeedsDiverge(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			if a, b := runOK(t, sc.run, 1), runOK(t, sc.run, 2); a.Digest == b.Digest {
				t.Fatalf("seeds 1 and 2 produced identical transcripts (digest %s)", a.Digest)
			}
		})
	}
}
