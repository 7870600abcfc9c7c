// Cross-shard ordering tests: the release-consistency contract must hold
// when the producer's writes and its release land in DIFFERENT replica
// groups of a sharded deployment. These run over both sharded backends
// (in-process and loopback UDP).
package kite_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kite/internal/testcluster"
)

// forEachShardedBackend runs body against both sharded backends of the
// shared harness (2 groups × 3 replicas), as subtests named by transport.
func forEachShardedBackend(t *testing.T, body func(t *testing.T, h *testcluster.Cluster)) {
	for _, be := range []struct {
		name    string
		backend testcluster.Backend
	}{{"inproc", testcluster.ShardedInProc}, {"remote", testcluster.ShardedRemote}} {
		t.Run(be.name, func(t *testing.T) {
			body(t, testcluster.Start(t, testcluster.Options{Backend: be.backend}))
		})
	}
}

// firstKeyIn returns the first key >= start owned by group g.
func firstKeyIn(t *testing.T, h *testcluster.Cluster, g int, start uint64) uint64 {
	t.Helper()
	for k := start; k < start+1<<16; k++ {
		if h.GroupOf(k) == g {
			return k
		}
	}
	t.Fatalf("no key of group %d near %d", g, start)
	return 0
}

// TestCrossShardReleaseAcquire is the sharded DRF handoff: the producer
// writes its payload into group A and releases a flag living in group B;
// a consumer on a different machine that acquires the flag from group B
// must then observe the payload in group A with a plain relaxed read.
func TestCrossShardReleaseAcquire(t *testing.T) {
	forEachShardedBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		kA := firstKeyIn(t, h, 0, 10_000) // payload: group A
		kB := firstKeyIn(t, h, 1, 20_000) // flag: group B

		prod := h.Lease(t, 0, 0)
		cons := h.Lease(t, h.Nodes()-1, 0)
		payload := []byte("cross-shard-payload")
		if err := prod.Write(kA, payload); err != nil {
			t.Fatal(err)
		}
		if err := prod.ReleaseWrite(kB, []byte("go")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			v, err := cons.AcquireRead(kB)
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
		// The acquire read the release, so the group-A write must already
		// be visible — first try, no retry loop.
		if v, err := cons.Read(kA); err != nil || !bytes.Equal(v, payload) {
			t.Fatalf("cross-shard RC violation: read(%d) = %q, %v; want %q", kA, v, err, payload)
		}
	})
}

// TestCrossShardManyWritesOneRelease stresses the fence with a spread of
// relaxed writes across both groups before a single release: every one of
// them must be visible to the post-acquire consumer.
func TestCrossShardManyWritesOneRelease(t *testing.T) {
	forEachShardedBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		flag := firstKeyIn(t, h, 1, 50_000)
		prod := h.Lease(t, 0, 0)
		cons := h.Lease(t, h.Nodes()-1, 0)

		const n = 64
		base := uint64(30_000)
		for i := uint64(0); i < n; i++ {
			if err := prod.Write(base+i, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.ReleaseWrite(flag, []byte("done")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			v, err := cons.AcquireRead(flag)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flag never visible (last %q)", v)
			}
		}
		for i := uint64(0); i < n; i++ {
			want := fmt.Sprintf("v%d", i)
			if v, err := cons.Read(base + i); err != nil || string(v) != want {
				t.Fatalf("key %d (group %d) = %q, %v; want %q after acquire",
					base+i, h.GroupOf(base+i), v, err, want)
			}
		}
	})
}

// TestCrossShardRMWFence checks that RMWs carry the cross-shard release
// barrier too: a CAS in group B fences the session's earlier relaxed write
// in group A.
func TestCrossShardRMWFence(t *testing.T) {
	forEachShardedBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		kA := firstKeyIn(t, h, 0, 60_000)
		kB := firstKeyIn(t, h, 1, 70_000)

		prod := h.Lease(t, 0, 0)
		cons := h.Lease(t, h.Nodes()-1, 0)
		if err := prod.Write(kA, []byte("guarded")); err != nil {
			t.Fatal(err)
		}
		if swapped, _, err := prod.CompareAndSwap(kB, nil, []byte("locked"), false); err != nil || !swapped {
			t.Fatalf("cas = %v, %v", swapped, err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			// The consumer takes the same lock path: a strong CAS that
			// fails observes the committed value with acquire semantics.
			swapped, old, err := cons.CompareAndSwap(kB, nil, []byte("mine"), false)
			if err != nil {
				t.Fatal(err)
			}
			if !swapped && string(old) == "locked" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lock never visible (swapped=%v old=%q)", swapped, old)
			}
		}
		if v, err := cons.Read(kA); err != nil || string(v) != "guarded" {
			t.Fatalf("cross-shard RMW fence violation: read(%d) = %q, %v", kA, v, err)
		}
	})
}
