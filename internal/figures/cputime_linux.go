package figures

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has spent
// (CLOCK_THREAD_CPUTIME_ID). It means something only on a goroutine locked
// to its thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
