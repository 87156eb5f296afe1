package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLadder is the percentiles a timing may be reported at beside its
// median, each with the share of samples that lies beyond it as 1/beyond.
var tailLadder = []struct {
	q      float64
	beyond int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// minSamples is how many samples a percentile needs so that at least ten lie
// beyond it; percentiles off the ladder are never supported.
func minSamples(q float64) int {
	for _, l := range tailLadder {
		if l.q == q {
			return 10 * l.beyond
		}
	}
	return math.MaxInt
}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, or 0 when not even the lowest has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, l := range tailLadder {
		if n >= minSamples(l.q) {
			best = l.q
		}
	}
	return best
}

// dist is a sorted sample of one timing.
type dist struct{ sorted []float64 }

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{s}
}

func (d dist) n() int              { return len(d.sorted) }
func (d dist) p(q float64) float64 { return percentile(d.sorted, q) }

// supported returns the q-th percentile only when at least ten samples lie
// beyond it, else 0 with ok false.
func (d dist) supported(q float64) (float64, bool) {
	if d.n() < minSamples(q) {
		return 0, false
	}
	return d.p(q), true
}

func (d dist) max() float64 {
	if d.n() == 0 {
		return 0
	}
	return d.sorted[d.n()-1]
}
