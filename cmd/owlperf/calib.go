package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host calibration. On a shared VM the speed of allocation-heavy code
// drifts with the neighbours' load: on the 2-vCPU host these numbers were
// taken on, the same detection took 190 ms in one minute and 350 ms a few
// minutes later, and ten runs of one workload spread by up to 47% between
// their quartiles. Every run therefore times a fixed calibration loop,
// which is this file's own code and calls nothing of Owl, before its
// first detection and after each one, and reports its end-to-end times in
// reference time: each detection's wall time scaled by calibRef over the
// mean of the two calibrations around it. A change to Owl moves the
// detections and not the loop; a change in the host moves both, and
// cancels. The wall times and the calibration are printed in the # lines,
// and host.calib_ms is a per-layer metric.

// calibRef is about the calibration loop's CPU time on the 2-vCPU Xeon VM
// the benchmark was defined on, in its quiet phases. It only sets the
// scale of reference time, close to wall time on that host.
const calibRef = 15 * time.Millisecond

// refScale turns a time measured between two calibrations that took
// before and after into reference time.
func refScale(before, after time.Duration) float64 {
	return 2 * float64(calibRef) / float64(before+after)
}

// calibSink keeps the calibration loop's results alive; owld-mix's two
// clients calibrate concurrently.
var calibSink atomic.Uint64

type calibNode struct {
	next *calibNode
	v    [6]int
}

// calibrate runs the calibration loop once and returns the CPU time of the
// thread that ran it, so time spent waiting while another goroutine holds
// the processor, as on owld-mix, does not count. The loop mixes integer
// arithmetic with building and dropping a linked list and a map: the blend
// of compute, allocation and collection whose speed tracked detection time
// best across the host's fast and slow phases.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	x := uint64(1)
	for i := 0; i < 3_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	for r := 0; r < 5; r++ {
		m := make(map[int]*calibNode)
		var head *calibNode
		for i := 0; i < 20000; i++ {
			head = &calibNode{next: head}
			head.v[0] = i
			m[i*7] = head
		}
		x += uint64(len(m))
	}
	calibSink.Add(x)
	return threadCPU() - start
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time of the calling thread. Linux always supports
// the clock; were the call to fail, times would read 0 and the run would
// end on a non-finite metric.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
