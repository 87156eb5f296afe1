package stream

import (
	"testing"
	"time"
)

// TestBackoffRandBounds: for every attempt the jittered delay stays within
// [d/2, d] where d is the capped exponential backoffMin<<attempt — i.e.
// jitter never exceeds the envelope and never collapses below half of it.
func TestBackoffRandBounds(t *testing.T) {
	tm := timing{backoffMin: 10 * time.Millisecond, backoffMax: 800 * time.Millisecond}
	for attempt := 0; attempt < 40; attempt++ {
		d := tm.backoffMin
		for i := 0; i < attempt && d < tm.backoffMax; i++ {
			d *= 2
		}
		if d > tm.backoffMax {
			d = tm.backoffMax
		}
		got := tm.backoff(attempt)
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
		}
	}
}
