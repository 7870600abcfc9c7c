// Live-membership conformance tests: a replica group grows and shrinks
// WHILE a release-consistency workload runs against it, over both the
// in-process backend and the loopback-UDP remote backend. The contract
// under test is the acceptance bar of the membership work: no
// client-visible consistency violation at any point of the
// reconfiguration — an acquire that reads round r's flag must see every
// payload write that preceded round r's release, whichever configuration
// epoch either operation ran under — plus the public Members/AddNode/
// RemoveNode surface across kite.Cluster, sharded.Cluster, the client
// package and testcluster.
package kite_test

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kite"
	"kite/client"
	"kite/internal/history"
	"kite/internal/testcluster"
	"kite/internal/verifier"
	"kite/sharded"
)

// members reads group membership the way each backend's users see it:
// kite.Cluster.Members in process, and a client's Refresh + Members over
// the wire (asking node 1, which survives every reconfiguration below).
func members(t *testing.T, h *testcluster.Cluster) (uint32, []int) {
	t.Helper()
	if kc, ok := h.Deployment.(*kite.Cluster); ok {
		m := kc.Members()
		return m.Epoch, m.Nodes
	}
	cl, err := client.Dial(h.Addr(1), client.Options{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("dial node 1: %v", err)
	}
	defer cl.Close()
	if err := cl.Refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	return cl.Members()
}

// runMembershipWorkload is the shared scenario: a producer/consumer pair
// runs rounds of [write payloads, release flag] / [acquire flag, read
// payloads] on nodes 1 and 2 while the group (a) adds node 3, (b) probes
// the joiner, and (c) removes original replica 0. Every session is wrapped
// in a history recorder; release consistency across whatever configuration
// epochs the operations spanned is judged offline by the shared verifier —
// the same checker the conformance, restart and chaos suites use.
func runMembershipWorkload(t *testing.T, h *testcluster.Cluster) {
	const payloadKeys = 8
	const flagKey = 9_000
	log := history.New()
	prod := log.Wrap(h.Lease(t, 1, 0))
	cons := log.Wrap(h.Lease(t, 2, 1))

	// probe drives one acquire-then-read-payloads pass through a recorded
	// session; the verifier decides afterwards what the reads were allowed
	// to return.
	probe := func(t *testing.T, s kite.Session) {
		t.Helper()
		flag, err := s.AcquireRead(flagKey)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if len(flag) == 0 {
			return // no release yet
		}
		for k := uint64(0); k < payloadKeys; k++ {
			if _, err := s.Read(100 + k); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rounds atomic.Uint64
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for r := uint64(1); ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			val := []byte(strconv.FormatUint(r, 10))
			for k := uint64(0); k < payloadKeys; k++ {
				if err := prod.Write(100+k, val); err != nil {
					t.Errorf("producer write: %v", err)
					return
				}
			}
			if err := prod.ReleaseWrite(flagKey, val); err != nil {
				t.Errorf("producer release: %v", err)
				return
			}
			rounds.Store(r)
		}
	}()
	go func() { // consumer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			probe(t, cons)
		}
	}()
	stopWorkload := func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}
	defer stopWorkload()

	// Let the workload get going, then GROW the group under it.
	waitRounds := func(min uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for rounds.Load() < min {
			if time.Now().After(deadline) {
				t.Fatalf("workload stalled at %d rounds", rounds.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRounds(3)
	id, err := h.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if id != 3 {
		t.Fatalf("AddNode id = %d, want 3", id)
	}
	awaitRejoin(t, h, id)
	if epoch, nodes := members(t, h); epoch != 1 || len(nodes) != 4 {
		t.Fatalf("after add: epoch %d members %v", epoch, nodes)
	}
	// The joiner must serve release-consistent state immediately.
	joinSess := log.Wrap(h.Lease(t, 3, 2))
	probe(t, joinSess)

	// Keep the workload running and SHRINK: remove an original replica.
	waitRounds(rounds.Load() + 3)
	if err := h.RemoveNode(0); err != nil {
		t.Fatalf("RemoveNode(0): %v", err)
	}
	if epoch, nodes := members(t, h); epoch != 2 || len(nodes) != 3 {
		t.Fatalf("after remove: epoch %d members %v", epoch, nodes)
	} else {
		for _, n := range nodes {
			if n == 0 {
				t.Fatalf("node 0 still a member: %v", nodes)
			}
		}
	}
	// A removed replica comes back only through AddNode, on every backend.
	if err := h.RestartNode(0); err == nil {
		t.Fatal("RestartNode brought back a removed replica")
	}
	// The workload must keep making progress on the reconfigured group...
	waitRounds(rounds.Load() + 3)
	stopWorkload()
	// ...and the final state must be consistent from both a survivor and
	// the joined replica.
	probe(t, cons)
	probe(t, joinSess)
	if t.Failed() {
		t.FailNow()
	}
	// Judgment: the recorded history — every producer round, every
	// consumer pass, the joiner probes — must satisfy RC and k-atomicity.
	if rep := verifier.Check(log.Snapshot()); !rep.OK() {
		t.Fatalf("membership workload violated consistency:\n%s", rep.String())
	}
}

// TestMembershipAddRemoveMidWorkloadInproc / ...Remote are the
// reconfiguration-under-load conformance tests of DESIGN.md "Membership"
// (testing strategy matrix row "membership").
func TestMembershipAddRemoveMidWorkloadInproc(t *testing.T) {
	runMembershipWorkload(t, testcluster.Start(t, testcluster.Options{Backend: testcluster.InProc}))
}

func TestMembershipAddRemoveMidWorkloadRemote(t *testing.T) {
	runMembershipWorkload(t, testcluster.Start(t, testcluster.Options{Backend: testcluster.Remote}))
}

// TestMembershipReservedKeyRejected pins the guard on the membership
// config key: application operations on the reserved key fail with
// ErrReservedKey on both backends (a write there would wedge — or subvert —
// reconfiguration).
func TestMembershipReservedKeyRejected(t *testing.T) {
	for _, b := range []testcluster.Backend{testcluster.InProc, testcluster.Remote} {
		t.Run(string(b), func(t *testing.T) {
			s := testcluster.Start(t, testcluster.Options{Backend: b}).Lease(t, 0, 0)
			if err := s.Write(^uint64(0), []byte("x")); !errors.Is(err, kite.ErrReservedKey) {
				t.Fatalf("write to reserved key: %v, want ErrReservedKey", err)
			}
			if _, err := s.FAA(^uint64(0), 1); !errors.Is(err, kite.ErrReservedKey) {
				t.Fatalf("FAA on reserved key: %v, want ErrReservedKey", err)
			}
			// The session survives the rejection.
			if err := s.Write(1, []byte("ok")); err != nil {
				t.Fatalf("session wedged after reserved-key rejection: %v", err)
			}
		})
	}
}

// TestMembershipShardedGrowShrink smokes the sharded public API: every
// group adds the new machine, every group removes it again, and the key
// space stays served throughout.
func TestMembershipShardedGrowShrink(t *testing.T) {
	c, err := sharded.NewCluster(2, kite.Options{
		Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session(0, 0)
	for k := uint64(0); k < 32; k++ {
		if err := s.Write(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReleaseWrite(1000, []byte("done")); err != nil {
		t.Fatal(err)
	}

	id, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if !c.AwaitRejoin(id, 30*time.Second) {
		t.Fatal("joiner never caught up in every group")
	}
	for g, m := range c.Members() {
		if m.Epoch != 1 || len(m.Nodes) != 4 {
			t.Fatalf("group %d after add: %+v", g, m)
		}
	}
	// A session on the new machine spans all groups and sees everything.
	js := c.Session(id, 1)
	if v, err := js.AcquireRead(1000); err != nil || string(v) != "done" {
		t.Fatalf("acquire on joiner: %q, %v", v, err)
	}
	for k := uint64(0); k < 32; k++ {
		if v, err := js.Read(k); err != nil || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("read %d on joiner: %q, %v", k, v, err)
		}
	}

	if err := c.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	for g, m := range c.Members() {
		if m.Epoch != 2 || len(m.Nodes) != 3 {
			t.Fatalf("group %d after remove: %+v", g, m)
		}
	}
	// The original members keep serving.
	if v, err := s.Read(7); err != nil || string(v) != "v7" {
		t.Fatalf("read after shrink: %q, %v", v, err)
	}
}
