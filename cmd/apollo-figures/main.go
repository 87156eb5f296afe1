// Command apollo-figures regenerates the paper's evaluation figures
// (Figures 3c through 13) against the simulated substrates and prints the
// series each figure plots. Whether a figure reproduces the paper's claim is
// decided by TestFiguresReproduce in internal/figures, at -quick -seed 1.
//
// Usage:
//
//	apollo-figures -all            # every figure, full parameters
//	apollo-figures -fig 8          # one figure
//	apollo-figures -all -quick     # scaled-down parameters, seconds per figure
//	apollo-figures -list           # list figure ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/figures"
)

func main() {
	var (
		fig   = flag.String("fig", "", "figure id to regenerate (e.g. 8, 12a); empty with -all for everything")
		all   = flag.Bool("all", false, "regenerate every figure")
		quick = flag.Bool("quick", false, "scaled-down parameters (seconds per figure)")
		seed  = flag.Int64("seed", 1, "seed for stochastic workloads")
		list  = flag.Bool("list", false, "list figure ids and exit")
	)
	flag.Parse()

	if *list {
		for _, g := range figures.All() {
			fmt.Printf("%-4s %s\n", g.ID, g.Title)
		}
		return
	}
	opts := figures.Options{Quick: *quick, Seed: *seed}
	var gens []figures.Generator
	switch {
	case *all:
		gens = figures.All()
	case *fig != "":
		g, ok := figures.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "apollo-figures: unknown figure %q (try -list)\n", *fig)
			os.Exit(2)
		}
		gens = []figures.Generator{g}
	default:
		flag.Usage()
		os.Exit(2)
	}
	failed := 0
	for _, g := range gens {
		start := time.Now()
		t, err := g.Fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apollo-figures: fig %s failed: %v\n", g.ID, err)
			failed++
			continue
		}
		fmt.Println(t.String())
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
