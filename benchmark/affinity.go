package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. On the 2-vCPU reference box the kernel's choice of where to
// wake the generator's and the daemons' threads made every latency and CPU
// metric bimodal between runs of one commit (daemon CPU per id 1300 or 2000 ns
// on an idle service, 700 to 1150 ns on the fleet; ingest_saturate 9 to 14 M
// ids/s): the guest's load balancer leaves two runnable threads on one CPU
// for about a second at a time. So every window runs with the generator
// confined to the first CPUs and the daemons to the rest: sched_setaffinity
// from the harness, no daemon change; a daemon started under a mask sizes its
// GOMAXPROCS to it. ingest_saturate therefore finds what the daemon's CPUs
// sustain, not the whole box: one CPU on the reference box, where it read
// 10.4 to 10.6 M ids/s over five runs against 13.6 to 14.7 M unconfined.

type cpuSet [16]uint64 // 1024 CPUs, the kernel's default mask size

func cpuRange(from, to int) cpuSet {
	var s cpuSet
	for c := from; c < to; c++ {
		s[c/64] |= 1 << (c % 64)
	}
	return s
}

// placement is where one window's processes may run.
type placement struct{ generator, daemons cpuSet }

func boxPlacement() placement {
	n := runtime.NumCPU()
	if n < 2 {
		return placement{cpuRange(0, n), cpuRange(0, n)}
	}
	g := 1
	if n >= 4 {
		g = 2
	}
	return placement{cpuRange(0, g), cpuRange(g, n)}
}

func setAffinity(tid int, s *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); errno != 0 {
		return os.NewSyscallError("sched_setaffinity", errno)
	}
	return nil
}

// confineSelf moves every thread of the harness onto s. Threads the runtime
// starts later inherit the mask of the thread that starts them; the second
// pass catches one started from a thread the first pass had not reached yet.
func confineSelf(s cpuSet) error {
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
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, &s); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("thread %d: %w", tid, err)
			}
		}
	}
	return nil
}

// startConfined starts a child process under mask s: a child inherits the
// mask of the thread that forks it, so this thread takes s for the fork and
// its own mask back afterwards.
func startConfined(s, back cpuSet, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &s); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, &back); err == nil {
		err = rerr
	}
	return err
}
