package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// This machine is a few virtual processors of a shared host, and what a
// processor gets done in a microsecond of CPU time changes with what the
// host's other guests do: for minutes at a time the same code costs 1.4 to 2
// times the CPU time it cost before (user and kernel time alike, nothing
// stolen, nothing in the guest different). No statistic over the seconds of a
// run survives that, and ten runs in a row share the phase.
//
// The yardstick is a fixed piece of work of the benchmark's own, done beside
// the load all through the window: on every processor in turn, twenty times a
// second, a thread pinned there runs one round (arithmetic, a walk over 4 MiB,
// twenty 64-byte round trips over a loopback TCP connection: the three things
// the pipeline spends its CPU time on) and notes the CPU time the round took.
// A second's CPU per tuple is then counted in the CPU time of that second's
// rounds, which the host slows by the same factor, and printed as
// microseconds of a machine on which a round takes yardstickNominal.
type yardstick struct {
	mu     sync.Mutex
	cost   time.Duration // thread CPU time of the rounds so far
	rounds int
	own    []atomic.Int64 // per thread: all the CPU time it has used, rounds or not
	heap   int            // bytes the threads keep allocated
	stop   func()
}

const (
	yardstickEvery   = 50 * time.Millisecond
	yardstickNominal = 200 * time.Microsecond
	yardstickWalk    = 1 << 19 // 8-byte entries
)

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	if errno == 0 {
		for i := 0; i < int(n)*8; i++ {
			if mask[i/64]&(1<<(i%64)) != 0 {
				cpus = append(cpus, i)
			}
		}
	}
	return cpus
}

func pinThread(cpu int) {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// loopbackPair returns two connected blocking TCP sockets on 127.0.0.1.
func loopbackPair() (a, b int, err error) {
	ln, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		return 0, 0, err
	}
	defer syscall.Close(ln)
	if err = syscall.Bind(ln, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		return 0, 0, err
	}
	if err = syscall.Listen(ln, 1); err != nil {
		return 0, 0, err
	}
	sa, err := syscall.Getsockname(ln)
	if err != nil {
		return 0, 0, err
	}
	if a, err = syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0); err != nil {
		return 0, 0, err
	}
	if err = syscall.Connect(a, sa); err != nil {
		syscall.Close(a)
		return 0, 0, err
	}
	if b, _, err = syscall.Accept(ln); err != nil {
		syscall.Close(a)
		return 0, 0, err
	}
	syscall.SetsockoptInt(a, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	return a, b, nil
}

var yardstickSink uint64

// round is the fixed work. Its results go to a sink so that none of it is
// optimised away.
func yardstickRound(state *uint64, walk []uint64, a, b int, msg []byte) {
	x, y, z := uint64(88172645463325252), uint64(362436069), uint64(521288629)
	for i := 0; i < 30_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y = y*6364136223846793005 + 1442695040888963407
		z += (x ^ y) >> 3
	}
	idx, sum := *state, uint64(0)
	for i := 0; i < 3_000; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		sum += walk[idx>>45] // the top 19 bits: yardstickWalk entries
	}
	*state = idx
	for i := 0; i < 20; i++ {
		syscall.Write(a, msg)
		syscall.Read(b, msg)
	}
	yardstickSink += x + y + z + sum
}

// startYardstick starts one pinned thread per processor; the threads take
// turns, so every processor is sampled equally whatever the load does.
func startYardstick() *yardstick {
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		cpus = []int{0}
	}
	y := &yardstick{own: make([]atomic.Int64, len(cpus)), heap: len(cpus) * yardstickWalk * 8}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for k, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Never unlocked: the thread ends with the goroutine, and its
			// affinity with it.
			runtime.LockOSThread()
			pinThread(cpu)
			walk := make([]uint64, yardstickWalk)
			for i := range walk {
				walk[i] = uint64(i)
			}
			a, b, err := loopbackPair()
			if err != nil {
				return
			}
			defer syscall.Close(a)
			defer syscall.Close(b)
			msg := make([]byte, 64)
			state := uint64(k + 1)
			select {
			case <-quit:
				return
			case <-time.After(yardstickEvery * time.Duration(k) / time.Duration(len(cpus))):
			}
			tick := time.NewTicker(yardstickEvery)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
				}
				t0 := threadCPU()
				yardstickRound(&state, walk, a, b, msg)
				t1 := threadCPU()
				y.mu.Lock()
				y.cost += t1 - t0
				y.rounds++
				y.mu.Unlock()
				y.own[k].Store(int64(t1))
			}
		}()
	}
	y.stop = func() { close(quit); wg.Wait() }
	return y
}

// read returns the rounds done so far, the CPU time they took, and all the
// CPU time the yardstick's threads have used, which is the benchmark's and
// not the program's.
func (y *yardstick) read() (cost time.Duration, rounds int, own time.Duration) {
	if y == nil {
		return 0, 0, 0
	}
	y.mu.Lock()
	cost, rounds = y.cost, y.rounds
	y.mu.Unlock()
	for i := range y.own {
		own += time.Duration(y.own[i].Load())
	}
	return cost, rounds, own
}
