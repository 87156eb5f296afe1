//go:build !linux

package figures

import "time"

var epoch = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is read:
// a component is then charged for the time another process held its core.
func threadCPU() time.Duration { return time.Since(epoch) }
