package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer wakes the open-loop dispatcher at due times. A Go timer wakes
// an idle process through the network poller's timeout, which has
// millisecond resolution, and a nanosleep would hold a scheduler P for
// the whole sleep. A timerfd read is served by the poller when the fd
// becomes readable, so the dispatcher wakes within the kernel's timer
// slack and holds no P while it waits.
type dueTimer struct {
	f *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval, value syscall.Timespec
}

func newDueTimer() (*dueTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &dueTimer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d.
func (t *dueTimer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err := t.f.Read(buf[:])
	return err
}

func (t *dueTimer) close() { t.f.Close() }
