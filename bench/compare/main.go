// Command compare reads result files of two versions of the code, applies
// each end-to-end metric's bound from BENCHMARK.json, and prints one row per
// (workload, metric) with base, new and their ratio. Several files per side
// (comma-separated) are compared by their medians, and a pair whose own
// runs spread wider than the bound is marked unresolved instead of ok. It
// exits non-zero on a regression.
//
//	go run -C bench ./compare -base out/base-set1.json,out/base-set2.json -new out/results-set1.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/bench/result"
)

func main() {
	spec := flag.String("spec", "../BENCHMARK.json", "the benchmark's metric list and bounds")
	base := flag.String("base", "", "result file(s) of the parent commit, comma-separated")
	next := flag.String("new", "", "result file(s) of the change, comma-separated")
	flag.Parse()
	if *base == "" || *next == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, err := result.ReadSpec(*spec)
	if err != nil {
		fatal(err)
	}
	b, err := readAll(*base)
	if err != nil {
		fatal(err)
	}
	n, err := readAll(*next)
	if err != nil {
		fatal(err)
	}
	pairs := result.Compare(s, b, n)
	fmt.Print(result.Format(pairs))
	if result.Regressed(pairs) {
		fmt.Fprintln(os.Stderr, "compare: regression")
		os.Exit(1)
	}
}

func readAll(list string) ([]*result.File, error) {
	var files []*result.File
	for _, path := range strings.Split(list, ",") {
		f, err := result.Read(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
