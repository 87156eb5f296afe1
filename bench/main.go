// Command bench is the pipeline benchmark: one command that assembles the
// real core.Service (self-polling Fact vertices on the wall clock, Delphi
// fill, broker, Insight vertices, history ring, archive, query engine,
// gateway over loopback sockets, subscribers), runs one of four workloads
// for a measured window, audits what came out, and prints every metric by
// name with its unit. See README.md.
//
//	go run -C bench . --workload edge-fanout --seed 1 --seconds 24 --trace 0
//	go run -C bench . -out ../bench/out             # all four, untraced then traced
//	go run -C bench . -repeat 3                     # spread of the end-to-end metrics
//	go run -C bench . -smoke                        # 2 s windows, audit only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/result"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == idleSpinFlag {
		idleSpin()
	}
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line; empty runs all four")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window, seconds")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", defaultOut(), "directory for result, trace and scratch files")
		repeat   = flag.Int("repeat", 0, "run all workloads this many times untraced and report each end-to-end metric's spread")
		smoke    = flag.Bool("smoke", false, "2 s windows and a single set-up per workload: checks the audit, not the numbers")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out,
		warmup: warmupSeconds * time.Second, setups: setupRepeats}
	if *smoke {
		cfg.seconds, cfg.warmup, cfg.setups, cfg.trace = 2, 500*time.Millisecond, 1, true
	}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, cfg)
	case *repeat > 0:
		err = runRepeat(*repeat, cfg)
	default:
		err = runAll(cfg, *smoke)
	}
	if err != nil {
		fatal(err)
	}
}

// defaultOut is bench/out, whether the command runs from the repository root
// (bench/run.sh) or from the benchmark's own directory (go run -C bench).
func defaultOut() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's contract: one workload, one run, the result as the
// last line of standard output. An audit violation exits non-zero without a
// result.
func runOne(name string, cfg config) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := runWorkload(def, cfg)
	if err != nil {
		return err
	}
	rows := o.rows(cfg.trace)
	printRows(rows)
	printNotes(o)
	f := &result.File{Env: o.env, Rows: rows, Flags: o.flags}
	if err := f.Write(filepath.Join(cfg.outDir, name+".result.json")); err != nil {
		return err
	}
	line := driverLine{Correct: true, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]driverValue{}}
	for _, r := range rows {
		line.Metrics[r.Metric] = driverValue{r.Value, r.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload untraced, then traced, and writes one file with
// both sets of rows. Smoke runs are traced only: they exist to exercise every
// code path and the audit.
func runAll(cfg config, smoke bool) error {
	f := &result.File{}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			if smoke && !traced {
				continue
			}
			c := cfg
			c.trace = traced
			o, err := runWorkload(def, c)
			if err != nil {
				return err
			}
			rows := o.rows(traced)
			if smoke {
				rows = append(o.rows(false), rows...)
			}
			printRows(rows)
			printNotes(o)
			f.Env = o.env
			f.Rows = append(f.Rows, rows...)
			for _, flag := range o.flags {
				f.Flags = append(f.Flags, def.name+": "+flag)
			}
		}
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := f.Write(path); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	return nil
}

// runRepeat measures every workload n times and reports, per end-to-end
// metric, the median, the extremes, and whether any set strays from the
// median by more than the metric's bound.
func runRepeat(n int, cfg config) error {
	cfg.trace = false
	values := make(map[string][]float64) // workload/metric -> one value per set
	for set := 0; set < n; set++ {
		f := &result.File{}
		for _, def := range workloads {
			o, err := runWorkload(def, cfg)
			if err != nil {
				return err
			}
			printNotes(o)
			f.Env = o.env
			for _, r := range o.rows(false) {
				f.Rows = append(f.Rows, r)
				values[r.Workload+"/"+r.Metric] = append(values[r.Workload+"/"+r.Metric], r.Value)
			}
		}
		if err := f.Write(filepath.Join(cfg.outDir, fmt.Sprintf("results-set%d.json", set+1))); err != nil {
			return err
		}
	}
	outside := 0
	fmt.Printf("%-14s %-18s %-6s %12s %12s %12s %7s  %s\n", "workload", "metric", "unit", "median", "min", "max", "bound", "verdict")
	for _, def := range workloads {
		for _, m := range endToEnd {
			vs := values[def.name+"/"+m.Name]
			med := result.Median(vs)
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			verdict := "ok"
			for _, v := range vs {
				if result.Worse(m, med, v) > m.Bound {
					verdict = "OUTSIDE"
				}
			}
			if verdict != "ok" {
				outside++
			}
			fmt.Printf("%-14s %-18s %-6s %12.5g %12.5g %12.5g %7.3f  %s\n",
				def.name, m.Name, m.Unit, med, sorted[0], sorted[len(sorted)-1], m.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) had a set outside their bound: the benchmark is not steady enough here to gate on them", outside)
	}
	return nil
}

func printRows(rows []result.Row) {
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %-36s %14.6g %-6s n=%d\n", r.Workload, r.Layer, r.Metric, r.Value, r.Unit, r.Samples)
	}
}

func printNotes(o *outcome) {
	if o.budget != "" {
		fmt.Print(o.budget)
	}
	for _, f := range o.flags {
		fmt.Printf("FLAG %s: %s\n", o.workload, f)
	}
}
