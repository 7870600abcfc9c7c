package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the processor time (user + system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// ticker is a periodic timerfd. The file is non-blocking, so a goroutine
// reading it parks in the netpoller and is woken by the kernel's
// high-resolution timer.
type ticker struct {
	f   *os.File
	buf [8]byte
}

// newTicker arms a timer whose first expiry is at origin (ns on the now
// clock, in the future) and which then fires every tickPeriod.
func newTicker(now func() int64, origin int64) (*ticker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	t := &ticker{f: os.NewFile(fd, "timerfd")}
	spec := struct{ Interval, Value syscall.Timespec }{
		syscall.NsecToTimespec(int64(tickPeriod)),
		syscall.NsecToTimespec(max(origin-now(), 1)), // zero would disarm it
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		t.f.Close()
		return nil, os.NewSyscallError("timerfd_settime", errno)
	}
	return t, nil
}

func (t *ticker) wait() error {
	_, err := t.f.Read(t.buf[:]) // the count of expirations since the last read
	return err
}

func (t *ticker) close() { t.f.Close() }
