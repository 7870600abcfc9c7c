package client_test

import (
	"sync/atomic"
	"testing"
	"time"

	"kite"
	"kite/client"
	"kite/internal/testcluster"
)

// raceEnabled is set under -race (race_test.go): the race runtime makes
// sync.Pool drop a share of its Puts on purpose, so the allocation budget
// does not apply there.
var raceEnabled bool

// remoteAllocsPerOp runs rounds × window ops of op through one client
// session's DoAsync, a window at a time, and returns the allocations per
// op counted over every goroutine of the process: the client's send and
// receive loops, the session server, and the node's worker. Keys cycle
// through 64 slots above base.
func remoteAllocsPerOp(t *testing.T, s *client.Session, op kite.Op, base uint64, rounds, window int) float64 {
	t.Helper()
	done := make(chan struct{}, window)
	var failed atomic.Int64
	cb := func(r client.Result) {
		if r.Err != nil {
			failed.Add(1)
		}
		done <- struct{}{}
	}
	step := func() {
		for i := 0; i < window; i++ {
			op.Key = base + uint64(i%64)
			s.DoAsync(op, cb)
		}
		for i := 0; i < window; i++ {
			<-done
		}
	}
	step() // warm the session's ring, the worker and the reply buffers
	allocs := testing.AllocsPerRun(rounds, step) / float64(window)
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d ops failed", n)
	}
	return allocs
}

// TestZeroAllocRemoteRelaxed pins the remote path of relaxed writes and
// reads, end to end over loopback UDP against one replica (quorum 1, so
// no replica traffic): the client session's ring slot with its reused
// frame, the server's ring slot owning its core.Request, the reply queue
// carrying value bytes by copy, and the peer address read without an
// allocation. A write allocates nothing; a read allocates only the
// caller-owned copy of Result.Value. The budgets leave 0.05/op for the
// runtime's own rare allocations (timers, goroutine growth).
func TestZeroAllocRemoteRelaxed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	cl := testcluster.Start(t, testcluster.Options{
		Backend: testcluster.Remote,
		Options: kite.Options{Nodes: 1, Workers: 1, SessionsPerWorker: 1,
			ReleaseTimeout: time.Second, RetryInterval: time.Second},
	})
	opts := testOpts()
	opts.RetryInterval = time.Second // no retransmission while the budget is taken
	c, err := client.Dial(cl.Addr(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("0123456789abcdef0123456789abcdef")

	w := remoteAllocsPerOp(t, s, kite.WriteOp(0, val), 100, 200, 64)
	t.Logf("remote relaxed write: %.4f allocs/op over %d ops", w, 200*64)
	if w >= 0.05 {
		t.Errorf("remote relaxed write allocates %.4f/op, budget < 0.05", w)
	}
	r := remoteAllocsPerOp(t, s, kite.ReadOp(0), 100, 200, 64)
	t.Logf("remote relaxed read: %.4f allocs/op over %d ops", r, 200*64)
	if r > 1.05 {
		t.Errorf("remote relaxed read allocates %.4f/op, budget 1.05 (the Result.Value copy)", r)
	}
}
