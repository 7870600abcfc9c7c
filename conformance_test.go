// Interface-conformance suite: every test in this file runs against EVERY
// Session backend — the in-process cluster, the remote client over a
// loopback-UDP 3-node deployment, and the sharded composition of each
// (2 independent replica groups behind one Session) — through the same
// kite.Session interface and the one harness that boots all four. This is
// the contract the api_redesign establishes: one operation model, one
// error taxonomy, one behavior, regardless of deployment.
package kite_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kite"
	"kite/internal/history"
	"kite/internal/testcluster"
	"kite/internal/verifier"
)

// forEachBackend runs body once per backend of the shared harness
// (internal/testcluster), each against a fresh deployment: 3 replicas, or
// 2 independent replica groups of 3 behind one Session on the sharded
// backends — same contract, twice the membership. Node ids name machines,
// so a sharded backend's lifecycle call hits that machine's replica of
// every group and its stats sum across groups.
func forEachBackend(t *testing.T, body func(t *testing.T, h *testcluster.Cluster)) {
	for _, b := range testcluster.Backends() {
		t.Run(string(b), func(t *testing.T) {
			body(t, testcluster.Start(t, testcluster.Options{Backend: b}))
		})
	}
}

// restart crash-stops replica node and boots a fresh, empty incarnation
// that rejoins via the catch-up sweep; awaitRejoin waits for the sweep.
func restart(t *testing.T, h *testcluster.Cluster, node int) {
	t.Helper()
	if err := h.RestartNode(node); err != nil {
		t.Fatalf("restart node %d: %v", node, err)
	}
}

func awaitRejoin(t *testing.T, h *testcluster.Cluster, node int) {
	t.Helper()
	if !h.AwaitRejoin(node, 30*time.Second) {
		t.Fatalf("node %d still catching up", node)
	}
}

// TestConformanceOps drives every operation class through Do and the
// convenience methods.
func TestConformanceOps(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		ctx := context.Background()

		if r, err := s.Do(ctx, kite.ReadOp(1)); err != nil || r.Value != nil {
			t.Fatalf("initial read = %+v, %v", r, err)
		}
		if _, err := s.Do(ctx, kite.WriteOp(1, []byte("hello"))); err != nil {
			t.Fatal(err)
		}
		if r, _ := s.Do(ctx, kite.ReadOp(1)); string(r.Value) != "hello" {
			t.Fatalf("read = %q", r.Value)
		}
		if _, err := s.Do(ctx, kite.ReleaseOp(2, []byte("flag"))); err != nil {
			t.Fatal(err)
		}
		if r, _ := s.Do(ctx, kite.AcquireOp(2)); string(r.Value) != "flag" {
			t.Fatalf("acquire = %q", r.Value)
		}
		if r, err := s.Do(ctx, kite.FAAOp(3, 7)); err != nil || r.Uint64() != 0 {
			t.Fatalf("faa = %+v, %v", r, err)
		}
		if old, err := s.FAA(3, 0); err != nil || old != 7 {
			t.Fatalf("faa read = %d, %v", old, err)
		}
		r, err := s.Do(ctx, kite.CASOp(4, nil, []byte("A"), false))
		if err != nil || !r.Swapped || r.Value != nil {
			t.Fatalf("cas = %+v, %v", r, err)
		}
		swapped, old, _ := s.CompareAndSwap(4, []byte("X"), []byte("B"), true)
		if swapped || string(old) != "A" {
			t.Fatalf("weak cas = %v %q", swapped, old)
		}
		// Convenience methods and Do are the same surface.
		if err := s.Write(5, []byte("w")); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Read(5); string(v) != "w" {
			t.Fatalf("read = %q", v)
		}
	})
}

// TestConformanceReleaseAcquire checks the DRF handoff across sessions on
// different replicas through the interface.
func TestConformanceReleaseAcquire(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		log := history.New()
		prod := log.Wrap(h.Lease(t, 0, 0))
		cons := log.Wrap(h.Lease(t, h.Nodes()-1, 0))
		payload := []byte("payload")
		if err := prod.Write(100, payload); err != nil {
			t.Fatal(err)
		}
		if err := prod.ReleaseWrite(101, []byte("go")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			v, err := cons.AcquireRead(101)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) == "go" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flag never visible (last %q)", v)
			}
		}
		if _, err := cons.Read(100); err != nil {
			t.Fatal(err)
		}
		// The handoff's correctness — the acquire anchored to the release
		// must expose the prior payload write — is judged by the shared
		// verifier over the recorded history.
		if rep := verifier.Check(log.Snapshot()); !rep.OK() {
			t.Fatalf("release/acquire handoff violated RC:\n%s", rep.String())
		}
	})
}

// TestConformanceDoBatch checks batch results, index alignment and the
// session-order atomicity of a batch: its ops occupy consecutive session
// positions and execute in slice order.
func TestConformanceDoBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		ctx := context.Background()

		if rs, err := s.DoBatch(ctx, nil); rs != nil || err != nil {
			t.Fatalf("empty batch = %v, %v", rs, err)
		}

		// Sequential FAAs in one batch: the old values must be exactly
		// 0..n-1 in batch order — interleaving or reordering would break
		// the sequence.
		const n = 10
		ops := make([]kite.Op, n)
		for i := range ops {
			ops[i] = kite.FAAOp(42, 1)
		}
		results, err := s.DoBatch(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != n {
			t.Fatalf("got %d results, want %d", len(results), n)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
			if r.Uint64() != uint64(i) {
				t.Fatalf("batch order violated: op %d saw old=%d", i, r.Uint64())
			}
		}

		// Mixed batch: writes and reads interleaved see each other in
		// slice order.
		mixed := []kite.Op{
			kite.WriteOp(50, []byte("v1")),
			kite.ReadOp(50),
			kite.WriteOp(50, []byte("v2")),
			kite.ReadOp(50),
		}
		rs, err := s.DoBatch(ctx, mixed)
		if err != nil {
			t.Fatal(err)
		}
		if string(rs[1].Value) != "v1" || string(rs[3].Value) != "v2" {
			t.Fatalf("batch internal order: read1=%q read2=%q", rs[1].Value, rs[3].Value)
		}

		// A batch larger than any single wire frame still completes and
		// stays ordered (the remote backend splits it into frames with
		// consecutive seqs).
		big := make([]kite.Op, 150)
		for i := range big {
			big[i] = kite.FAAOp(43, 1)
		}
		brs, err := s.DoBatch(ctx, big)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range brs {
			if r.Uint64() != uint64(i) {
				t.Fatalf("large batch order violated at %d: old=%d", i, r.Uint64())
			}
		}
	})
}

// TestConformanceValueTooLong checks the shared oversized-value error on
// every submission path, and that rejection leaves the session usable.
func TestConformanceValueTooLong(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		ctx := context.Background()
		big := make([]byte, kite.MaxValueLen+1)

		if err := s.Write(1, big); !errors.Is(err, kite.ErrValueTooLong) {
			t.Fatalf("oversized write: %v, want ErrValueTooLong", err)
		}
		if _, _, err := s.CompareAndSwap(1, big, []byte("x"), false); !errors.Is(err, kite.ErrValueTooLong) {
			t.Fatalf("oversized comparand: %v, want ErrValueTooLong", err)
		}
		// Batch validation is all-or-nothing on every backend: the valid
		// first op must NOT execute.
		rs, err := s.DoBatch(ctx, []kite.Op{kite.WriteOp(1, []byte("leaked")), kite.WriteOp(2, big)})
		if !errors.Is(err, kite.ErrValueTooLong) || rs != nil {
			t.Fatalf("oversized batch = %v, %v; want nil results + ErrValueTooLong", rs, err)
		}
		if v, _ := s.Read(1); string(v) == "leaked" {
			t.Fatal("rejected batch executed its valid prefix")
		}
		// Unknown op codes share the same up-front rejection.
		if _, err := s.Do(ctx, kite.Op{Code: 42}); !errors.Is(err, kite.ErrBadOp) {
			t.Fatalf("bad op code: %v, want ErrBadOp", err)
		}
		done := make(chan kite.Result, 1)
		s.DoAsync(kite.WriteOp(1, big), func(r kite.Result) { done <- r })
		if r := <-done; !errors.Is(r.Err, kite.ErrValueTooLong) {
			t.Fatalf("oversized async write: %v, want ErrValueTooLong", r.Err)
		}
		// The rejections consumed nothing: the session still works.
		if err := s.Write(1, []byte("fits")); err != nil {
			t.Fatalf("write after rejections: %v", err)
		}
		if v, err := s.Read(1); err != nil || string(v) != "fits" {
			t.Fatalf("read after rejections: %q, %v", v, err)
		}
	})
}

// TestConformanceDeadlineOnPausedNode checks per-op deadlines: an operation
// against a paused (sleeping, §8.4) replica returns promptly with the
// shared cancellation error instead of hanging, and the session survives.
func TestConformanceDeadlineOnPausedNode(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		if err := s.Write(1, []byte("before")); err != nil {
			t.Fatal(err)
		}

		h.PauseNode(0, 700*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := s.Do(ctx, kite.WriteOp(2, []byte("during")))
		if !errors.Is(err, kite.ErrCanceled) {
			t.Fatalf("deadline on paused node: %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline cause lost: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("Do held the caller %v past a 150ms deadline", elapsed)
		}

		// After the node wakes the session keeps working: cancellation
		// must not wedge the ordered stream on either backend.
		time.Sleep(700 * time.Millisecond)
		deadline := time.Now().Add(20 * time.Second)
		for {
			if err := s.Write(3, []byte("after")); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("session dead after cancellation: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if v, err := s.Read(3); err != nil || string(v) != "after" {
			t.Fatalf("read after recovery: %q, %v", v, err)
		}
	})
}

// TestConformanceCancelMidOp checks explicit cancellation (not deadline):
// the caller is released promptly with ErrCanceled/context.Canceled.
func TestConformanceCancelMidOp(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		h.PauseNode(0, 500*time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(100 * time.Millisecond)
			cancel()
		}()
		_, err := s.Do(ctx, kite.FAAOp(9, 1))
		if !errors.Is(err, kite.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled op: %v, want ErrCanceled + context.Canceled", err)
		}
	})
}

// TestConformanceSessionClosed checks the shared closed-session error.
func TestConformanceSessionClosed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		if err := s.Write(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := s.Write(2, []byte("y")); !errors.Is(err, kite.ErrSessionClosed) {
			t.Fatalf("write after close: %v, want ErrSessionClosed", err)
		}
		if _, err := s.Do(context.Background(), kite.ReadOp(1)); !errors.Is(err, kite.ErrSessionClosed) {
			t.Fatalf("do after close: %v, want ErrSessionClosed", err)
		}
		if _, err := s.DoBatch(context.Background(), []kite.Op{kite.ReadOp(1)}); !errors.Is(err, kite.ErrSessionClosed) {
			t.Fatalf("batch after close: %v, want ErrSessionClosed", err)
		}
	})
}

// TestConformanceLocalAcquires checks the Hermes-style local acquire fast
// path (DESIGN.md "Local reads") through the interface, on every backend,
// via the per-node hit/fallback counters: a quiescent fully-replicated
// relaxed key is eventually served locally (LocalAcqHits advances), and an
// invalidated key — its valid bit cleared by a release's install — falls
// back to the ABD quorum read (AcqFallbacks advances).
func TestConformanceLocalAcquires(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)

		// A relaxed write full-acks, the origin broadcasts validates, and
		// from then on acquires of the key are served off the local store.
		// Validation is asynchronous, so poll until a hit lands.
		if err := s.Write(200, []byte("settled")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			before := h.NodeStats(0).LocalAcqHits
			v, err := s.AcquireRead(200)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != "settled" {
				t.Fatalf("acquire = %q, want %q", v, "settled")
			}
			if h.NodeStats(0).LocalAcqHits > before {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no local acquire hit on a quiescent key: %+v", h.NodeStats(0))
			}
			time.Sleep(5 * time.Millisecond)
		}

		// Invalidation: a release's install clears the valid bit, and
		// releases are never validated — the next acquire MUST take the
		// quorum read (it carries the synchronizes-with edge) and return
		// the released value.
		fb := h.NodeStats(0).AcqFallbacks
		if err := s.ReleaseWrite(200, []byte("released")); err != nil {
			t.Fatal(err)
		}
		v, err := s.AcquireRead(200)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "released" {
			t.Fatalf("acquire after release = %q, want %q", v, "released")
		}
		if got := h.NodeStats(0).AcqFallbacks; got <= fb {
			t.Fatalf("acquire of a released key did not fall back (fallbacks %d -> %d)", fb, got)
		}
	})
}

// TestConformanceAsyncPipeline checks DoAsync ordering: a pipelined burst
// completes, and a subsequent read observes the last write.
func TestConformanceAsyncPipeline(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		s := h.Lease(t, 0, 0)
		const n = 32
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			s.DoAsync(kite.WriteOp(7, []byte(fmt.Sprintf("v%d", i))), func(r kite.Result) { errs <- r.Err })
		}
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("async write %d: %v", i, err)
			}
		}
		if v, err := s.Read(7); err != nil || string(v) != fmt.Sprintf("v%d", n-1) {
			t.Fatalf("read after async burst: %q, %v", v, err)
		}
	})
}
