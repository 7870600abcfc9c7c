// Restart/rejoin fault tests: a replica is killed mid-workload, restarted
// empty, and must catch up via the anti-entropy sweep before serving —
// after which the release-consistency contract must hold exactly as if it
// had never died. These run over all FOUR Session backends (in-process,
// loopback-UDP remote, and the 2-group sharded composition of each); the
// cross-shard variant additionally pins the fence semantics through a
// restart.
package kite_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kite"
	"kite/internal/history"
	"kite/internal/testcluster"
	"kite/internal/verifier"
)

// TestConformanceRestartRejoin kills the last replica in the middle of a
// live workload, restarts it, waits for its catch-up sweep, and then
// requires a FRESH session on the rejoined replica to serve
// release-consistent state: the acquired flag, every payload key (from its
// own swept store), and the exactly-once RMW counter.
func TestConformanceRestartRejoin(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		victim := h.Nodes() - 1
		log := history.New()
		prod := log.Wrap(h.Lease(t, 0, 0))

		// Background load on another node keeps the deployment busy across
		// the kill/rejoin. Its relaxed writes broadcast to the victim too:
		// while the victim is down they pile up unacked (throttling the
		// writer), and the rejoining incarnation's acks release it — the
		// "buffers live traffic" half of the rejoin story.
		bg := log.Wrap(h.Lease(t, 1, 1))
		stopBG := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stopBG:
					return
				default:
				}
				if err := bg.Write(50_000+i%64, []byte("bg")); err != nil {
					t.Errorf("background write: %v", err)
					return
				}
			}
		}()
		defer func() { close(stopBG); wg.Wait() }()

		const payloadKeys = 10
		for k := uint64(0); k < payloadKeys; k++ {
			if err := prod.Write(100+k, []byte(fmt.Sprintf("payload-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := prod.FAA(200, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.ReleaseWrite(300, []byte("go")); err != nil {
			t.Fatal(err)
		}
		// Fence: every payload write is at every replica, so the victim's
		// sweep sources can all serve it.
		if _, err := prod.Do(context.Background(), kite.FlushOp()); err != nil {
			t.Fatal(err)
		}

		restart(t, h, victim)
		awaitRejoin(t, h, victim)

		cons := log.Wrap(h.Lease(t, victim, 0))
		if v, err := cons.AcquireRead(300); err != nil || string(v) != "go" {
			t.Fatalf("acquire on rejoined replica = %q, %v", v, err)
		}
		// The payload reads' legality — each must expose the value covered by
		// the acquired release, from the rejoined replica's own swept store —
		// is judged by the shared verifier over the recorded history.
		for k := uint64(0); k < payloadKeys; k++ {
			if _, err := cons.Read(100 + k); err != nil {
				t.Fatalf("read(%d) on rejoined replica: %v", 100+k, err)
			}
		}
		// The RMW counter survived with exactly-once semantics: the next FAA
		// sees 3, not a replay or a reset.
		if old, err := cons.FAA(200, 0); err != nil || old != 3 {
			t.Fatalf("FAA on rejoined replica = %d, %v; want 3", old, err)
		}
		// And the rejoined replica serves new synchronisation normally.
		if err := cons.ReleaseWrite(301, []byte("post")); err != nil {
			t.Fatal(err)
		}
		if v, err := prod.AcquireRead(301); err != nil || string(v) != "post" {
			t.Fatalf("acquire of post-rejoin release = %q, %v", v, err)
		}
		if rep := verifier.Check(log.Snapshot()); !rep.OK() {
			t.Fatalf("restart/rejoin history violated consistency:\n%s", rep.String())
		}
	})
}

// TestRestartAcquireFallsBack pins the rejoin gating of the local-acquire
// fast path (DESIGN.md "Local reads"): every install path a restarted
// replica rebuilds its store through — WAL replay and the catch-up sweep —
// goes via Store.Apply, which leaves the valid bit clear. So a key that was
// being served locally before the crash must take the ABD quorum read on
// the rejoined incarnation's first acquire, and only fresh relaxed traffic
// (a new full-ack + validate broadcast) may put it back on the fast path.
func TestRestartAcquireFallsBack(t *testing.T) {
	forEachBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		victim := h.Nodes() - 1
		prod := h.Lease(t, 0, 0)
		vic := h.Lease(t, victim, 0)

		// Warm the victim's valid bit: write a relaxed key and poll until an
		// acquire on the victim is served locally (full-ack + validate landed).
		if err := prod.Write(400, []byte("warm")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			before := h.NodeStats(victim).LocalAcqHits
			v, err := vic.AcquireRead(400)
			if err != nil {
				t.Fatal(err)
			}
			if h.NodeStats(victim).LocalAcqHits > before {
				// A local hit serves the validated (fully-acked) write.
				if string(v) != "warm" {
					t.Fatalf("local hit = %q, want %q", v, "warm")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("victim never served key 400 locally: %+v", h.NodeStats(victim))
			}
			time.Sleep(5 * time.Millisecond)
		}

		restart(t, h, victim)
		awaitRejoin(t, h, victim)

		// First acquire on the rejoined incarnation: the swept/replayed store
		// must not claim validity — the read pays the quorum round.
		cons := h.Lease(t, victim, 0)
		hits0, fb0 := h.NodeStats(victim).LocalAcqHits, h.NodeStats(victim).AcqFallbacks
		if v, err := cons.AcquireRead(400); err != nil || string(v) != "warm" {
			t.Fatalf("acquire on rejoined replica = %q, %v", v, err)
		}
		after := h.NodeStats(victim)
		if after.AcqFallbacks <= fb0 {
			t.Fatalf("rejoined replica's first acquire did not fall back (fallbacks %d -> %d)",
				fb0, after.AcqFallbacks)
		}
		if after.LocalAcqHits != hits0 {
			t.Fatalf("rejoined replica served a replayed key locally (hits %d -> %d)",
				hits0, after.LocalAcqHits)
		}

		// Fresh relaxed traffic re-validates: the rejoined replica returns to
		// the fast path once a new write full-acks against the new member set.
		if err := prod.Write(400, []byte("again")); err != nil {
			t.Fatal(err)
		}
		deadline = time.Now().Add(20 * time.Second)
		for {
			before := h.NodeStats(victim).LocalAcqHits
			v, err := cons.AcquireRead(400)
			if err != nil {
				t.Fatal(err)
			}
			if h.NodeStats(victim).LocalAcqHits > before {
				if string(v) != "again" {
					t.Fatalf("local hit after rejoin = %q, want %q", v, "again")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rejoined replica never re-entered the fast path: %+v", h.NodeStats(victim))
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestCrossShardRestartFence pins the sharding requirement of the rejoin
// design: a replica restarted in the payload's group must not let the
// cross-shard release fence pass before it has truly applied the session's
// writes. The producer writes to group A while A's replica on the victim
// machine is mid-rejoin, then releases in group B; when a consumer's
// acquire in B observes the flag, a plain read of the group-A payload —
// served by any replica, including the rejoined one — must succeed with no
// retry loop.
func TestCrossShardRestartFence(t *testing.T) {
	forEachShardedBackend(t, func(t *testing.T, h *testcluster.Cluster) {
		kA := firstKeyIn(t, h, 0, 10_000) // payload: group A
		kB := firstKeyIn(t, h, 1, 20_000) // flag: group B
		victim := h.Nodes() - 1

		prod := h.Lease(t, 0, 0)
		if err := prod.Write(kA, []byte("seed")); err != nil {
			t.Fatal(err)
		}
		restart(t, h, victim)

		// Write the payload and release WHILE the victim machine is (very
		// likely still) rejoining: the release's fence must wait for the
		// rejoining replica's genuine apply+ack, never count it early.
		payload := []byte("post-restart-payload")
		if err := prod.Write(kA, payload); err != nil {
			t.Fatal(err)
		}
		if err := prod.ReleaseWrite(kB, []byte("go")); err != nil {
			t.Fatal(err)
		}

		awaitRejoin(t, h, victim)
		cons := h.Lease(t, victim, 0)
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
		if v, err := cons.Read(kA); err != nil || !bytes.Equal(v, payload) {
			t.Fatalf("cross-shard RC violation across restart: read(%d) = %q, %v; want %q",
				kA, v, err, payload)
		}
	})
}
