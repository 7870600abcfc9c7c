//go:build !linux

package main

import "time"

// cpuTime is not measured here; paced_cpu_us_per_op reads 0.
func cpuTime() time.Duration { return 0 }

// ticker falls back to sleeping where there is no timerfd; wake-ups are then
// as coarse as the platform's timers and paced latencies include that.
type ticker struct {
	now    func() int64
	origin int64
}

func newTicker(now func() int64, origin int64) (*ticker, error) {
	return &ticker{now: now, origin: origin}, nil
}

func (t *ticker) wait() error {
	p := int64(tickPeriod)
	n := t.now()
	next := t.origin
	if n >= t.origin {
		next = t.origin + ((n-t.origin)/p+1)*p
	}
	time.Sleep(time.Duration(next - n))
	return nil
}

func (t *ticker) close() {}
