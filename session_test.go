package kite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled is set under -race (race_test.go): the race runtime makes
// sync.Pool drop a share of its Puts on purpose, so the allocation budgets
// do not apply there.
var raceEnabled bool

// allocCluster boots the 3-node deployment the allocation budgets are
// measured on. Timeouts are long enough that no slow path or
// retransmission fires while the budgets are taken.
func allocCluster(t *testing.T) *Cluster {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	c, err := NewCluster(Options{
		Nodes: 3, Workers: 1, SessionsPerWorker: 1, Capacity: 1 << 12,
		ReleaseTimeout: time.Second, RetryInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// asyncAllocsPerOp runs rounds × window ops through DoAsync, a window at a
// time, and returns the allocations per op counted over every goroutine of
// the process (testing.AllocsPerRun reads the global malloc counter), so the
// workers' and the remote replicas' share is included. Keys cycle through
// 64 slots above base.
func asyncAllocsPerOp(t *testing.T, s Session, op Op, base uint64, rounds, window int) float64 {
	t.Helper()
	done := make(chan struct{}, window)
	var failed atomic.Int64
	cb := func(r Result) {
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
	allocs := testing.AllocsPerRun(rounds, step) / float64(window)
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d ops failed", n)
	}
	return allocs
}

// TestZeroAllocRelaxedWrite pins the relaxed-write path at zero allocations
// per op, end to end: the pooled request, the local apply, the recycled
// ledger entry holding the write's broadcast, the in-proc hop with its
// payload copy, the remote applies and acks, and the validate broadcast.
func TestZeroAllocRelaxedWrite(t *testing.T) {
	c := allocCluster(t)
	val := []byte("0123456789abcdef0123456789abcdef")
	got := asyncAllocsPerOp(t, c.Session(0, 0), WriteOp(0, val), 100, 200, 64)
	t.Logf("relaxed write: %.4f allocs/op over %d ops", got, 200*64)
	if got >= 0.05 {
		t.Fatalf("relaxed write allocates %.4f/op, budget < 0.05", got)
	}
}

// TestZeroAllocRelaxedRead pins the relaxed-read path at the one allocation
// the public contract requires: the caller-owned copy of Result.Value.
func TestZeroAllocRelaxedRead(t *testing.T) {
	c := allocCluster(t)
	s := c.Session(0, 0)
	for k := uint64(0); k < 64; k++ {
		if err := s.Write(200+k, []byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	got := asyncAllocsPerOp(t, s, ReadOp(0), 200, 200, 64)
	t.Logf("relaxed read: %.4f allocs/op over %d ops", got, 200*64)
	if got > 1.05 {
		t.Fatalf("relaxed read allocates %.4f/op, budget 1.05 (the Result.Value copy)", got)
	}
}

// Values of the recycling test: key, then the writing session in the top
// byte and its per-session write sequence below.
const stampLen = 16

func stampVal(buf []byte, key uint64, sess int, seq uint64) {
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint64(buf[8:], uint64(sess)<<56|seq)
}

// TestRecycledRequestsCompleteOnce drives pooled requests through every
// way a request can end — inline completion, a blocking head, context
// cancellation before and after issue, and the ErrStopped sweeps of a node
// stopped mid-flight — and checks that recycling never shows: every
// callback fires exactly once, and every read returns a value its own
// session wrote to that very key (each session reads and writes only its
// own keys, with unique per-session stamps), never one older than what the
// session had already seen complete nor newer than what it had submitted.
// Under -race it also checks that nothing touches a request after its
// completion: a late touch races with the next owner of the pooled call.
func TestRecycledRequestsCompleteOnce(t *testing.T) {
	c, err := NewCluster(Options{
		Nodes: 3, Workers: 1, SessionsPerWorker: 3, Capacity: 1 << 12,
		ReleaseTimeout: 2 * time.Millisecond, RetryInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		sessions = 8
		window   = 64
		opsEach  = 1500
		keysEach = 16
		stopAt   = opsEach / 3 // node 2 stops once session 0 has issued this many
	)
	home := [sessions]int{0, 0, 0, 1, 1, 1, 2, 2}
	var (
		wg      sync.WaitGroup
		stopped = make(chan struct{})
		bad     = make(chan string, 64)
		// What the run exercised: stamped values read back, Do calls that
		// gave up on their deadline, ops failed by the stop.
		readBack, canceled, failedStop atomic.Int64
	)
	report := func(format string, args ...any) {
		select {
		case bad <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for sess := 0; sess < sessions; sess++ {
		s := c.Session(home[sess], sess%3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(1000 * (sess + 1))
			var (
				fired     [opsEach]atomic.Int32
				submitted [keysEach]uint64 // highest seq submitted per key
				mu        sync.Mutex
				seen      [keysEach]uint64 // highest seq read back per key
				seq       uint64
				val       = make([]byte, stampLen)
				sem       = make(chan struct{}, window)
			)
			// check validates a read of key k issued when submitted[k] was
			// hi; lo is the highest seq of k the session had read back.
			check := func(k int, hi, lo uint64, r Result) {
				if r.Err != nil || len(r.Value) == 0 {
					return
				}
				if len(r.Value) != stampLen {
					report("session %d key %d: %d-byte value", sess, k, len(r.Value))
					return
				}
				key := binary.LittleEndian.Uint64(r.Value)
				tag := binary.LittleEndian.Uint64(r.Value[8:])
				owner, got := int(tag>>56), tag&(1<<56-1)
				switch {
				case key != base+uint64(k) || owner != sess:
					report("session %d key %d read a value stamped key %d session %d", sess, base+uint64(k), key, owner)
				case got > hi:
					report("session %d key %d read seq %d, newer than any it had submitted (%d)", sess, k, got, hi)
				case got < lo:
					report("session %d key %d read seq %d after already reading %d", sess, k, got, lo)
				}
				mu.Lock()
				seen[k] = max(seen[k], got)
				mu.Unlock()
				readBack.Add(1)
			}
			// outcome books an op's error: a stop or (for Do) a deadline is
			// expected, anything else is not.
			outcome := func(i int, err error) {
				switch {
				case err == nil:
				case errors.Is(err, ErrStopped):
					failedStop.Add(1)
				case errors.Is(err, ErrCanceled):
					canceled.Add(1)
				default:
					report("session %d op %d: %v", sess, i, err)
				}
			}
			for i := 0; i < opsEach; i++ {
				if sess == 0 && i == stopAt {
					close(stopped)
				}
				// Eight consecutive ops share a key: its writes, then its
				// reads.
				k := i / 8 % keysEach
				key := base + uint64(k)
				var op Op
				switch i % 8 {
				case 0, 1, 2:
					seq++
					stampVal(val, key, sess, seq)
					op = WriteOp(key, val)
					submitted[k] = seq
				case 3:
					seq++
					stampVal(val, key, sess, seq)
					op = ReleaseOp(key, val)
					submitted[k] = seq
				case 4:
					op = AcquireOp(key)
				case 5:
					op = FAAOp(base+keysEach, 1) // a counter, outside the stamped keys
				default:
					op = ReadOp(key)
				}
				isRead := op.Code == OpRead || op.Code == OpAcquire
				hi := submitted[k]
				mu.Lock()
				lo := seen[k]
				mu.Unlock()
				if i%11 == 10 {
					// Synchronous, on a 1 ms deadline: canceled while queued
					// behind the window, or completed.
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					r, err := s.Do(ctx, op)
					cancel()
					outcome(i, err)
					if isRead {
						check(k, hi, lo, r)
					}
					fired[i].Add(1)
				} else {
					sem <- struct{}{}
					s.DoAsync(op, func(r Result) {
						outcome(i, r.Err)
						if isRead {
							check(k, hi, lo, r)
						}
						fired[i].Add(1)
						select {
						case <-sem:
						default: // never block a worker, even on a completion too many
							report("session %d op %d: a completion with no op in flight", sess, i)
						}
					})
				}
				// DoAsync and Do copied the value: scribbling on it now must
				// not reach the write.
				clear(val)
			}
			deadline := time.After(10 * time.Second)
			for n := 0; n < window; n++ {
				select {
				case sem <- struct{}{}:
				case <-deadline:
					report("session %d: %d ops never completed", sess, window-n)
					return
				}
			}
			for i := range fired {
				if n := fired[i].Load(); n != 1 {
					report("session %d op %d completed %d times", sess, i, n)
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		<-stopped
		c.StopNode(2)
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		// No Close: it would wait on the wedged worker too.
		t.Fatal("run wedged for 30 s: a worker blocked, e.g. delivering one call's completion twice")
	}
	c.Close()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	t.Logf("%d stamped values read back, %d Do calls canceled, %d ops stopped",
		readBack.Load(), canceled.Load(), failedStop.Load())
	if readBack.Load() == 0 || failedStop.Load() == 0 {
		t.Fatal("the run read back no value or failed no op on the stopped node")
	}
}
