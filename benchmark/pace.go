package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker wakes one goroutine at a given time to within tens of microseconds.
// time.Sleep cannot: the runtime's timers ride the network poller's
// millisecond timeouts, so a wait of 80 us comes back after a millisecond,
// which would make the generator, not the daemon, the largest term in every
// latency. nanosleep(2) is precise but parks the goroutine's P in a system
// call, and with two paced goroutines on two Ps the connection readers then
// wait up to 10 ms for the runtime's monitor to take a P back. A timerfd read
// through the poller is both: the goroutine parks, and the poller wakes it
// the moment the timer fires.
type waker struct{ f *os.File }

type itimerspec struct{ interval, value syscall.Timespec }

func newWaker() (*waker, error) {
	const clockMonotonic, nonblock, cloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waker{os.NewFile(fd, "timerfd")}, nil
}

func (w *waker) close() { _ = w.f.Close() }

// sleepUntil returns at t, or at once when t has passed.
func (w *waker) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}
