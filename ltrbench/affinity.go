package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set (1024 CPUs).
type cpuMask [16]uint64

// affinity returns the CPU set the calling thread may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, e
	}
	return m, nil
}

// lastCPU returns a set holding only the highest-numbered CPU of m.
func (m cpuMask) lastCPU() cpuMask {
	var one cpuMask
	for i := len(m)*64 - 1; i >= 0; i-- {
		if m[i/64]&(1<<(i%64)) != 0 {
			one[i/64] = 1 << (i % 64)
			break
		}
	}
	return one
}

// setAffinity binds every thread of the process to the CPU set m. Threads
// made later inherit it from the thread that makes them; the second pass
// catches a thread made during the first.
func setAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return e
			}
		}
	}
	return nil
}
