package core

import (
	"errors"
	"testing"
	"time"

	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

func membershipConfig(nodes int) Config {
	return Config{
		Nodes: nodes, Workers: 2, SessionsPerWorker: 2, KVSCapacity: 1 << 12,
		ReleaseTimeout: 2 * time.Millisecond, RetryInterval: time.Millisecond,
	}
}

// doOn runs one request synchronously on session s.
func doOn(t testing.TB, s *Session, r *Request) *Request {
	t.Helper()
	done := make(chan struct{})
	r.Done = func(*Request) { close(done) }
	s.Submit(r)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%v on key %d timed out", r.Code, r.Key)
	}
	return r
}

// TestAddNodeServesAfterCatchup grows a 3-node group to 4 and checks the
// joiner (a) installed the committed config, (b) caught up on pre-existing
// state, and (c) serves synchronisation traffic as a full member.
func TestAddNodeServesAfterCatchup(t *testing.T) {
	c, err := NewCluster(membershipConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := c.Node(0).Session(0)
	for k := uint64(0); k < 64; k++ {
		doOn(t, s, &Request{Code: OpWrite, Key: 100 + k, Val: []byte("before")})
	}
	doOn(t, s, &Request{Code: OpRelease, Key: 99, Val: []byte("flag")})

	id, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("AddNode id = %d, want 3", id)
	}
	nd := c.Node(id)
	if !nd.AwaitCatchup(10 * time.Second) {
		t.Fatalf("joiner still catching up: %+v", nd.Catchup())
	}
	if v := nd.View(); v.Epoch != 1 || v.N() != 4 {
		t.Fatalf("joiner view = %v", v)
	}
	if got := c.Members(); got.Epoch != 1 || got.N() != 4 {
		t.Fatalf("cluster members = %v", got)
	}
	// Every old member converged on the new config.
	for i := 0; i < 3; i++ {
		if e := c.Node(i).ConfigEpoch(); e != 1 {
			t.Fatalf("node %d at epoch %d", i, e)
		}
	}
	// The joiner serves: an acquire through it sees the released flag, and a
	// relaxed read sees swept state.
	js := nd.Session(0)
	if got := doOn(t, js, &Request{Code: OpAcquire, Key: 99}); string(got.Out) != "flag" {
		t.Fatalf("acquire on joiner = %q", got.Out)
	}
	if got := doOn(t, js, &Request{Code: OpRead, Key: 100}); string(got.Out) != "before" {
		t.Fatalf("read on joiner = %q", got.Out)
	}
	// Quorum sizes grew: an RMW through the joiner commits (needs 3 of 4).
	if got := doOn(t, js, &Request{Code: OpFAA, Key: 500, Delta: 7}); got.Uint64Out() != 0 {
		t.Fatalf("FAA old = %d", got.Uint64Out())
	}
	if got := doOn(t, s, &Request{Code: OpFAA, Key: 500, Delta: 1}); got.Uint64Out() != 7 {
		t.Fatalf("FAA via old member saw %d, want 7", got.Uint64Out())
	}
}

// TestRemoveNodeUnblocksAndStops removes a replica mid-deployment: pending
// full-ack state must refit (releases do not wait for the leaver), the
// survivors converge on the shrunk config, and the leaver stops serving.
func TestRemoveNodeUnblocksAndStops(t *testing.T) {
	c, err := NewCluster(membershipConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Make node 2 unresponsive, then issue writes from node 0: their acks
	// from node 2 never arrive, so a flush would block on full replication.
	c.Node(2).Pause(time.Hour)
	s := c.Node(0).Session(0)
	for k := uint64(0); k < 8; k++ {
		doOn(t, s, &Request{Code: OpWrite, Key: k, Val: []byte("w")})
	}

	// Removing the sleeper must complete the stranded writes: the flush
	// fence refits to the surviving member set.
	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	doOn(t, s, &Request{Code: OpFlush})

	if got := c.Members(); got.Epoch != 1 || got.N() != 2 || got.Contains(2) {
		t.Fatalf("members after remove = %v", got)
	}
	// The leaver is stopped; fresh submissions on it fail.
	r := &Request{Code: OpRead, Key: 1, Done: func(*Request) {}}
	c.Node(2).Session(0).Submit(r)
	if !errors.Is(r.Err, ErrStopped) {
		t.Fatalf("removed node accepted a request (err=%v)", r.Err)
	}
	// Releases and acquires still work on the 2-member group.
	doOn(t, s, &Request{Code: OpRelease, Key: 50, Val: []byte("after")})
	if got := doOn(t, c.Node(1).Session(0), &Request{Code: OpAcquire, Key: 50}); string(got.Out) != "after" {
		t.Fatalf("acquire after remove = %q", got.Out)
	}
}

// TestRemoveRejectsLastMemberAndSelf covers the guard rails.
func TestRemoveRejectsLastMemberAndSelf(t *testing.T) {
	c, err := NewCluster(membershipConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Node(0).ReconfigureRemove(0, time.Second); err == nil {
		t.Fatal("self-removal accepted")
	}
	if err := c.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(0); err == nil {
		t.Fatal("removing the last member accepted")
	}
}

// TestStaleEpochFramesRejectedAndConverge checks the wire-level epoch
// discipline directly: frames from another epoch are dropped and counted,
// and the config exchange heals the laggard.
func TestStaleEpochFramesRejectedAndConverge(t *testing.T) {
	c, err := NewCluster(membershipConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, n1 := c.Node(0), c.Node(1)

	// Jump node 0 to a future epoch with the same member set (as if it
	// installed a config node 1 has not heard of).
	if !n0.InstallConfig(membership.Config{Epoch: 3, Members: n0.MembersMask()}) {
		t.Fatal("install refused")
	}
	before := n0.staleFrames.Load()

	// Node 1 still runs epoch 0: its next protocol frame at node 0 must be
	// dropped (stale) and answered with a config push, after which node 1
	// converges and the op completes despite the dropped round.
	got := doOn(t, n1.Session(0), &Request{Code: OpRelease, Key: 7, Val: []byte("x")})
	if got.Err != nil {
		t.Fatalf("release through reconfiguration: %v", got.Err)
	}
	if n0.staleFrames.Load() == before {
		t.Fatal("no frame was rejected for its epoch")
	}
	if e := n1.ConfigEpoch(); e != 3 {
		t.Fatalf("node 1 converged to epoch %d, want 3", e)
	}

	// And the other direction: a frame stamped AHEAD of the receiver makes
	// the receiver pull the sender's config.
	if e := n0.ConfigEpoch(); e != 3 {
		t.Fatalf("node 0 at epoch %d", e)
	}
}

// TestShrinkCompletesInflightSyncOps pins the refit of in-flight ABD
// rounds: a release and an acquire blocked solely on an unresponsive
// member's reply must complete the moment a configuration excluding that
// member installs (their quorum arithmetic re-resolves against the
// surviving set), instead of retransmitting forever at a node whose frames
// the epoch check would reject.
func TestShrinkCompletesInflightSyncOps(t *testing.T) {
	c, err := NewCluster(membershipConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Node(1).Pause(time.Hour)

	s := c.Node(0).Session(0)
	relDone := make(chan *Request, 1)
	rel := &Request{Code: OpRelease, Key: 5, Val: []byte("v"), Done: func(r *Request) { relDone <- r }}
	s.Submit(rel)
	select {
	case <-relDone:
		t.Fatal("release completed without a 2-member quorum")
	case <-time.After(50 * time.Millisecond):
	}

	// Simulate the shrunk configuration committing (the CAS itself cannot
	// quorate with the sleeper down — operators shrink around a LIVE
	// member; this is the unit-level view of the install).
	if !c.Node(0).InstallConfig(membership.Config{Epoch: 1, Members: 0b01}) {
		t.Fatal("install refused")
	}
	select {
	case r := <-relDone:
		if r.Err != nil {
			t.Fatalf("release after shrink: %v", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release still blocked after the member was removed")
	}

	// Acquires re-resolve too (same worker, fresh head op under epoch 1).
	acqDone := make(chan *Request, 1)
	acq := &Request{Code: OpAcquire, Key: 5, Done: func(r *Request) { acqDone <- r }}
	s.Submit(acq)
	select {
	case r := <-acqDone:
		if r.Err != nil || string(r.Out) != "v" {
			t.Fatalf("acquire after shrink: %q, %v", r.Out, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire blocked after the member was removed")
	}
}

// TestInstallConfigMonotone checks installs never regress and removal marks
// the node.
func TestInstallConfigMonotone(t *testing.T) {
	tr := transport.NewInProc(4, 1, 64)
	defer tr.Close()
	nd, err := NewNode(0, Config{Nodes: 3, Workers: 1, SessionsPerWorker: 1, KVSCapacity: 64}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if nd.InstallConfig(membership.Config{Epoch: 0, Members: 0b1111}) {
		t.Fatal("same-epoch install accepted")
	}
	if !nd.InstallConfig(membership.Config{Epoch: 2, Members: 0b1111}) {
		t.Fatal("newer install refused")
	}
	if nd.InstallConfig(membership.Config{Epoch: 1, Members: 0b0111}) {
		t.Fatal("older install accepted")
	}
	if nd.Removed() {
		t.Fatal("member marked removed")
	}
	if !nd.InstallConfig(membership.Config{Epoch: 3, Members: 0b1110}) {
		t.Fatal("removing install refused")
	}
	if !nd.Removed() {
		t.Fatal("excluded node not marked removed")
	}
}

// TestConfigExchangeMessages covers the pull/info handlers at the message
// level.
func TestConfigExchangeMessages(t *testing.T) {
	c, err := NewCluster(membershipConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n1 := c.Node(1)
	// Push a newer config at node 1 via a raw ConfigInfo frame.
	tr, err := c.net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(transport.Endpoint{Node: 1, Worker: 0}, []proto.Message{{
		Kind: proto.KindConfigInfo, From: 0, Worker: 0,
		Slot: 5, Bits: n1.MembersMask(),
	}})
	deadline := time.Now().Add(5 * time.Second)
	for n1.ConfigEpoch() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 at epoch %d, want 5", n1.ConfigEpoch())
		}
		time.Sleep(time.Millisecond)
	}
}
