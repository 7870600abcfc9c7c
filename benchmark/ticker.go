package main

import "time"

// tickPeriod is the grid the open loop's arrivals sit on: every tickPeriod a
// fixed number of ops falls due at once, and the driver wakes to issue them.
// The grid exists because a sleeping Go program cannot be woken by a Go timer
// more precisely than about a millisecond (an idle scheduler waits in
// epoll_wait, whose timeout is in whole milliseconds), which is far above the
// latencies being measured; a timerfd read through the netpoller wakes within
// tens of microseconds. Arrivals are therefore bursts on a 100 us grid.
const tickPeriod = 100 * time.Microsecond

// A ticker (os_linux.go, os_other.go) wakes its driver on the grid
// origin + j*tickPeriod: wait blocks until the next grid point has passed,
// close releases it.
