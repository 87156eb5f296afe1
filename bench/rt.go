package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/result"
)

// procUsage is the process's own cost so far, from getrusage.
type procUsage struct {
	user, sys time.Duration
	ctxSw     int64
}

func (u procUsage) cpu() time.Duration { return u.user + u.sys }

func readUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procUsage{user: tv(ru.Utime), sys: tv(ru.Stime), ctxSw: int64(ru.Nvcsw + ru.Nivcsw)}
}

// gcCPUSeconds is the runtime's estimate of CPU spent collecting.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// stolenSeconds is the CPU time the hypervisor has withheld from this
// machine so far (the steal column of /proc/stat); 0 when unreadable.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}

func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// liveHeapBytes forces a collection and returns what survived it.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// gcPauses returns the pauses of the collections between two MemStats, ms.
func gcPauses(from, to *runtime.MemStats) []float64 {
	n := int(to.NumGC - from.NumGC)
	n = min(n, len(to.PauseNs))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(to.PauseNs[(int(to.NumGC)-1-i+len(to.PauseNs))%len(to.PauseNs)])/1e6)
	}
	return out
}

// headCommit resolves HEAD from the files of a git directory, without
// running git; "" when dir is not one (the driver's checkout is not).
func headCommit(dir string) string {
	head, err := os.ReadFile(dir + "/HEAD")
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		h = ""
		if b, err := os.ReadFile(dir + "/" + ref); err == nil {
			h = strings.TrimSpace(string(b))
		} else if packed, err := os.ReadFile(dir + "/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					h = hash
				}
			}
		}
	}
	return h[:min(len(h), 12)]
}

func fingerprint(cfg config) result.Env {
	env := result.Env{
		Commit:       "unknown",
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     "unknown",
		Seed:         cfg.seed,
		WindowSec:    cfg.seconds,
		WarmupSec:    warmupSeconds,
		FreshLimitMS: freshLimitMS,
		Traced:       cfg.trace,
	}
	if c := headCommit(".git"); c != "" {
		env.Commit = c
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
