package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Go's timers wake an idle process with millisecond granularity (the
// netpoller waits in whole milliseconds), which would make the open-loop
// generator send most requests up to 1 ms late, and a sleep in a plain
// syscall would keep one of the two Ps from the server. The generator
// therefore waits on a timerfd through the netpoller: the expiry is exact
// to the kernel's hrtimer and the goroutine parks without holding a P.

const clockMonotonic = 1

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// sleeper waits on one timerfd.
type sleeper struct {
	fd  uintptr // kept apart: File.Fd would switch the file to blocking mode
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep arms the timer for d and waits for it to expire.
func (s *sleeper) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
