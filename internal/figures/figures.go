// Package figures regenerates every figure of the paper's evaluation
// (§4, Figures 3c through 13) against the simulated substrates. Each
// FigXX function returns a Table whose rows mirror the series the paper
// plots; cmd/apollo-figures prints them, and TestFiguresReproduce checks
// each against the paper's claim. Absolute numbers differ from the Ares
// testbed; the shapes (who wins, by what factor, where crossovers fall) are
// the reproduction target — EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"fmt"
	"strings"
)

// Table is one reproduced figure/table.
type Table struct {
	// ID is the paper's figure identifier, e.g. "fig8".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the headers.
	Columns []string
	// Rows are the data series.
	Rows [][]string
	// Notes carry caveats (scaled-down parameters, substitutions).
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// Options tunes figure generation cost.
type Options struct {
	// Quick shrinks workload sizes so every figure regenerates in seconds
	// (used by the tests). Full mode matches the paper's
	// parameters where feasible on one machine.
	Quick bool
	// Seed makes stochastic workloads reproducible.
	Seed int64
}

// pick returns quick when Options.Quick, else full.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Generator produces one figure.
type Generator struct {
	ID    string
	Title string
	Fn    func(Options) (*Table, error)
}

// All lists every figure generator in paper order.
func All() []Generator {
	return []Generator{
		{"t1", "I/O Insight curations (Table 1)", Table1},
		{"3c", "Delphi verification on unseen metrics", Fig3c},
		{"4", "Operation anatomy of SCoRe vertices", Fig4},
		{"5", "Apollo resource consumption and overhead", Fig5},
		{"6a", "Publish throughput vs client threads", Fig6a},
		{"6b", "Subscribe throughput vs nodes", Fig6b},
		{"7a", "Latency vs node degree", Fig7a},
		{"7b", "Latency vs Hamming distance", Fig7b},
		{"8", "Cost and accuracy of fixed and AIMD adaptivity", Fig8},
		{"9", "Apollo on irregular HACC-IO workloads", Fig9},
		{"10", "Apollo on regular HACC-IO workloads", Fig10},
		{"11", "Delphi vs per-metric LSTM baselines", Fig11},
		{"12a", "Apollo vs LDMS: latency scaling with nodes", Fig12a},
		{"12b", "Apollo vs LDMS: latency vs query complexity", Fig12b},
		{"12c", "Apollo vs LDMS: CPU overhead per process", Fig12c},
		{"13a", "Apollo + Data Placement Engine (VPIC)", Fig13a},
		{"13b", "Apollo + Data Prefetching Engine (Montage)", Fig13b},
		{"13c", "Apollo + Data Replication Engine (VPIC/BD-CATS)", Fig13c},
	}
}

// ByID returns the generator for a figure id.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}
