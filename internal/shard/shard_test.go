package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"kite"
	"kite/internal/shard"
	"kite/sharded"
)

func TestMapDeterministicAndBalanced(t *testing.T) {
	for _, groups := range []int{1, 2, 3, 8} {
		m := shard.NewMap(groups)
		if m.Groups() != groups {
			t.Fatalf("Groups() = %d, want %d", m.Groups(), groups)
		}
		counts := make([]int, groups)
		const keys = 1 << 14
		for k := uint64(0); k < keys; k++ {
			g := m.Group(k)
			if g != m.Group(k) {
				t.Fatalf("groups=%d key=%d: routing not deterministic", groups, k)
			}
			if g < 0 || g >= groups {
				t.Fatalf("groups=%d key=%d: group %d out of range", groups, k, g)
			}
			counts[g]++
		}
		// Uniform hash: every group should hold roughly keys/groups; allow
		// a generous ±25% (sequential keys are the adversarial pattern a
		// modulo-only map would fail catastrophically).
		want := keys / groups
		for g, c := range counts {
			if c < want*3/4 || c > want*5/4 {
				t.Fatalf("groups=%d: group %d holds %d of %d keys (want ≈%d)", groups, g, c, keys, want)
			}
		}
	}
}

func TestMapIdentityWhenUnsharded(t *testing.T) {
	m := shard.NewMap(0) // clamped to 1
	for k := uint64(0); k < 100; k++ {
		if m.Group(k) != 0 {
			t.Fatalf("unsharded map routed key %d to group %d", k, m.Group(k))
		}
	}
}

// keyInGroup returns the first key >= start that m routes to g.
func keyInGroup(t *testing.T, m shard.Map, g int, start uint64) uint64 {
	t.Helper()
	for k := start; k < start+1<<16; k++ {
		if m.Group(k) == g {
			return k
		}
	}
	t.Fatalf("no key in group %d near %d", g, start)
	return 0
}

func newTestCluster(t *testing.T, groups int) *sharded.Cluster {
	t.Helper()
	c, err := sharded.NewCluster(groups, kite.Options{
		Nodes: 3, Workers: 2, SessionsPerWorker: 4, Capacity: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCrossShardReleaseFence is the core soundness property of the sharding
// layer, checked without any acquire in the written group: after a release
// in group B completes, the session's earlier relaxed writes in group A are
// applied at EVERY replica of group A (the cross-shard fence drained them),
// so plain relaxed reads on any node observe them immediately.
func TestCrossShardReleaseFence(t *testing.T) {
	c := newTestCluster(t, 2)
	m := shard.NewMap(2)
	kA := keyInGroup(t, m, 0, 1000)
	kB := keyInGroup(t, m, 1, 2000)

	s := c.Session(0, 0)
	defer s.Close()
	if err := s.Write(kA, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseWrite(kB, []byte("go")); err != nil {
		t.Fatal(err)
	}
	// Every replica of group A must already hold the write: read through a
	// fresh session on every node, relaxed, no retries.
	for n := 0; n < c.Nodes(); n++ {
		r := c.Session(n, 1)
		if v, err := r.Read(kA); err != nil || string(v) != "payload" {
			t.Fatalf("node %d: read(%d) = %q, %v after cross-shard release", n, kA, v, err)
		}
		r.Close()
	}
}

// TestShardedBatchSplitsPerGroup checks that a mixed batch split across
// groups keeps index alignment and per-group order, and that FAAs inside
// one batch stay sequential.
func TestShardedBatchSplitsPerGroup(t *testing.T) {
	c := newTestCluster(t, 3)
	s := c.Session(0, 0)
	defer s.Close()
	ctx := context.Background()

	const n = 60 // spans all 3 groups with interleaved keys
	ops := make([]kite.Op, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		ops = append(ops, kite.WriteOp(i, []byte{byte(i)}))
	}
	for i := uint64(0); i < n; i++ {
		ops = append(ops, kite.ReadOp(i))
	}
	rs, err := s.DoBatch(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		r := rs[n+i]
		if len(r.Value) != 1 || r.Value[0] != byte(i) {
			t.Fatalf("batch read %d = %v (group %d)", i, r.Value, c.GroupOf(i))
		}
	}

	// FAA is a sync op: the batch path must keep it ordered with the
	// relaxed run around it.
	faas := make([]kite.Op, 10)
	for i := range faas {
		faas[i] = kite.FAAOp(1<<20, 1)
	}
	rs, err = s.DoBatch(ctx, faas)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Uint64() != uint64(i) {
			t.Fatalf("faa %d saw old=%d", i, r.Uint64())
		}
	}
}

// TestCrossShardFenceAfterSlowRelease is the end-to-end regression for the
// DM-set interaction: an in-group slow release in group A (one group-A
// replica cut off) settles the producer's writes; the following cross-shard
// release in group B must STILL wait for the sleeper's real acks, because
// the consumer acquires only in group B and would otherwise read group A's
// stale replica forever. The sleeper is a network isolation of group A's
// replica alone, healed after nap; a PauseNode would put machine 2 to
// sleep in both groups.
func TestCrossShardFenceAfterSlowRelease(t *testing.T) {
	c := newTestCluster(t, 2)
	m := shard.NewMap(2)
	kA := keyInGroup(t, m, 0, 1000)  // payload: group A
	kA2 := keyInGroup(t, m, 0, 5000) // in-group release flag: group A
	kB := keyInGroup(t, m, 1, 2000)  // cross-shard flag: group B

	const nap = 400 * time.Millisecond
	faults := c.Group(0).Faults() // only group A's replica on machine 2 sleeps
	start := time.Now()
	faults.IsolateNode(2, true)
	heal := time.AfterFunc(nap, func() { faults.IsolateNode(2, false) })
	defer heal.Stop()

	prod := c.Session(0, 0)
	defer prod.Close()
	if err := prod.Write(kA, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// In-group release: completes promptly via the DM-set slow path.
	slowBefore := c.Group(0).NodeStats(0).SlowReleases
	if err := prod.ReleaseWrite(kA2, []byte("local")); err != nil {
		t.Fatal(err)
	}
	if slow := c.Group(0).NodeStats(0).SlowReleases - slowBefore; slow != 1 {
		t.Fatalf("in-group release took %d slow releases, want 1 (the DM-set slow path)", slow)
	}
	if since := time.Since(start); since > nap/2 {
		t.Fatalf("in-group release took %v; expected the DM-set slow path", since)
	}
	// Cross-shard release: the fence must wait for the sleeper's acks.
	if err := prod.ReleaseWrite(kB, []byte("go")); err != nil {
		t.Fatal(err)
	}
	if since := time.Since(start); since < nap/2 {
		t.Fatalf("cross-shard release completed in %v: settled writes leaked past the fence", since)
	}
	// The consumer's group-A sub-session sits on the machine that slept;
	// after acquiring in group B, its plain read must see the payload.
	cons := c.Session(2, 1)
	defer cons.Close()
	if v, err := cons.AcquireRead(kB); err != nil || string(v) != "go" {
		t.Fatalf("acquire = %q, %v", v, err)
	}
	if v, err := cons.Read(kA); err != nil || string(v) != "payload" {
		t.Fatalf("cross-shard RC violation after slow release: read = %q, %v", v, err)
	}
}

// TestShardedFlushOp checks that a user-level FlushOp fences every dirty
// group of the session.
func TestShardedFlushOp(t *testing.T) {
	c := newTestCluster(t, 2)
	m := shard.NewMap(2)
	kA := keyInGroup(t, m, 0, 100)
	kB := keyInGroup(t, m, 1, 200)

	s := c.Session(0, 0)
	defer s.Close()
	if err := s.Write(kA, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(kB, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), kite.FlushOp()); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < c.Nodes(); n++ {
		r := c.Session(n, 1)
		if v, _ := r.Read(kA); string(v) != "a" {
			t.Fatalf("node %d: group-0 write not replicated after flush", n)
		}
		if v, _ := r.Read(kB); string(v) != "b" {
			t.Fatalf("node %d: group-1 write not replicated after flush", n)
		}
		r.Close()
	}
}

// TestShardedDoCancelWhileQueued checks that Do honours its context even
// while the op is still queued behind a pump blocked on an earlier
// synchronisation op — the same prompt-cancellation contract as every
// other backend.
func TestShardedDoCancelWhileQueued(t *testing.T) {
	c := newTestCluster(t, 2)
	s := c.Session(0, 0)
	defer s.Close()

	// Block the pump: pause every replica, then submit an async FAA (a
	// sync op the pump executes inline).
	c.PauseNode(0, 600*time.Millisecond)
	c.PauseNode(1, 600*time.Millisecond)
	c.PauseNode(2, 600*time.Millisecond)
	faaDone := make(chan kite.Result, 1)
	s.DoAsync(kite.FAAOp(1, 1), func(r kite.Result) { faaDone <- r })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Do(ctx, kite.ReadOp(2))
	if !errors.Is(err, kite.ErrCanceled) {
		t.Fatalf("queued Do under deadline: %v, want ErrCanceled", err)
	}
	if since := time.Since(start); since > 400*time.Millisecond {
		t.Fatalf("Do held the caller %v past a 100ms deadline", since)
	}
	// The session recovers once the nodes wake.
	if r := <-faaDone; r.Err != nil {
		t.Fatalf("blocked FAA after wake: %v", r.Err)
	}
	if err := s.Write(3, []byte("after")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestShardedAsyncPipelineOrder checks DoAsync ordering through the pump: a
// burst of relaxed writes to one key followed by a synchronous read
// observes the last write.
func TestShardedAsyncPipelineOrder(t *testing.T) {
	c := newTestCluster(t, 2)
	s := c.Session(0, 0)
	defer s.Close()
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		s.DoAsync(kite.WriteOp(9, []byte{byte(i)}), func(r kite.Result) { errs <- r.Err })
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("async write %d: %v", i, err)
		}
	}
	if v, err := s.Read(9); err != nil || len(v) != 1 || v[0] != n-1 {
		t.Fatalf("read after async burst = %v, %v", v, err)
	}
}
