package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine an idle virtual CPU halts, and waking it is a trip
// through the hypervisor whose price follows the host's adaptive halt
// polling: the same paced workload cost 90 us of CPU per tuple in one run and
// 250 us in the next, for the length of a run, with nothing in the guest
// different. The pipeline is made of goroutines that wake each other across
// processors, so that price is most of what such a run measures.
//
// keepAwake keeps the processors from halting for the length of a run: one
// child process per processor spins at the lowest scheduling class
// (SCHED_IDLE), which gives way to any runnable thread at once and is not
// part of this process's CPU time.

const idleSpinFlag = "-idle-spin"

// keepAwake starts the spinners and returns what kills them and waits for
// them. Where they could not run (no exec, SCHED_IDLE refused) the run went
// on without them, and stop returns a note saying so.
func keepAwake() (stop func() (note string)) {
	exe, err := os.Executable()
	if err != nil {
		return func() string { return "idle spinners unavailable: " + err.Error() }
	}
	var cmds []*exec.Cmd
	var startErr error
	for i := 0; i < runtime.NumCPU() && startErr == nil; i++ {
		c := exec.Command(exe, idleSpinFlag)
		if startErr = c.Start(); startErr == nil {
			cmds = append(cmds, c)
		}
	}
	return func() string {
		note := ""
		if startErr != nil {
			note = "idle spinners unavailable: " + startErr.Error()
		}
		for _, c := range cmds {
			_ = c.Process.Kill()
			// A spinner that was still there to be killed reports the
			// signal; one that gave up on its own reports an exit status.
			var exit *exec.ExitError
			if err := c.Wait(); errors.As(err, &exit) && exit.Exited() {
				note = "idle spinners unavailable: SCHED_IDLE refused"
			}
		}
		return note
	}
}

// idleSpin is the child: it lowers the calling thread to SCHED_IDLE and
// spins until killed, or until its parent is gone.
func idleSpin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// A spinner at normal priority would take a processor from the run.
		fmt.Fprintln(os.Stderr, "bench: idle spinner: SCHED_IDLE refused:", errno)
		os.Exit(1)
	}
	parent := os.Getppid()
	for i := 0; ; i++ {
		if i&(1<<24-1) == 0 && os.Getppid() != parent {
			os.Exit(0)
		}
	}
}
