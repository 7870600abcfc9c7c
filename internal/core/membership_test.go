package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"kite/internal/abd"
	"kite/internal/es"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/paxos"
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

// refitNet is a hand-driven replica group for the refit tests: its nodes are
// built but not started, so the test goroutine runs every worker, and a
// message moves only when the test delivers it. A member the test stops
// delivering for is paused — deterministically, at an exact round.
type refitNet struct {
	nodes []*Node
	done  map[*Request]bool
}

func newRefitNet(t *testing.T, n, workers int, disableFastPath bool) *refitNet {
	tr := transport.NewInProc(n, workers, 0)
	t.Cleanup(func() { tr.Close() })
	net := &refitNet{done: map[*Request]bool{}}
	for i := 0; i < n; i++ {
		nd, err := NewNode(uint8(i), Config{
			Nodes: n, Workers: workers, SessionsPerWorker: 1, KVSCapacity: 1 << 10,
			DisableFastPath: disableFastPath,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		for _, w := range nd.workers {
			w.now = time.Now()
		}
		net.nodes = append(net.nodes, nd)
	}
	return net
}

// issue starts r on node 0's first session.
func (net *refitNet) issue(r *Request) *Request {
	return net.issueOn(net.nodes[0].workers[0].sessions[0], r)
}

// issueOn starts r on session s (the test runs s's worker).
func (net *refitNet) issueOn(s *Session, r *Request) *Request {
	r.sess = s
	r.Done = func(r *Request) { net.done[r] = true }
	s.w.issue(s, r)
	return r
}

// exchange delivers everything node 0 staged for peer, then peer's answers.
func (net *refitNet) exchange(peer int) {
	net.deliver(0, peer)
	net.deliver(peer, 0)
}

func (net *refitNet) deliver(from, to int) {
	src, dst := net.nodes[from].workers[0], net.nodes[to].workers[0]
	msgs := append([]proto.Message(nil), src.out[to]...)
	src.out[to] = src.out[to][:0]
	for i := range msgs {
		dst.dispatch(&msgs[i])
	}
}

// TestRefitCompletesInflightRounds pins the one config-change path: every
// kind of quorum round, blocked solely on members that stopped answering,
// completes the moment a configuration excluding them installs (its tally
// refits and its op resolves against the surviving set) instead of
// retransmitting forever at nodes whose frames the epoch check would
// reject. The install is the unit-level view of a committed shrink (the
// CAS itself cannot quorate with the sleepers down). The same holds for the
// write ledger: a write whose only missing acks were the removed members'
// completes, and validates like an ordinary full ack.
func TestRefitCompletesInflightRounds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int
		slowPath bool   // DisableFastPath: relaxed accesses take the quorum rounds
		members  uint16 // the shrunk config (default: node 0 alone)
		block    func(t *testing.T, net *refitNet) *Request
		want     string
		validate uint64 // key of a write the refit completes (0: none)
	}{
		{name: "release-llc", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			return net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("v")})
		}},
		{name: "release-value", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			r := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("v")})
			net.exchange(1) // the LLC round quorates; the value round waits on node 1
			if ph := net.nodes[0].workers[0].sessions[0].ops.rel.wr.Phase; ph != abd.WriteValue {
				t.Fatalf("release in phase %v, want the value round", ph)
			}
			return r
		}},
		{name: "acquire-read", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			return net.issue(&Request{Code: OpAcquire, Key: 5})
		}},
		{name: "acquire-write-back", nodes: 2, want: "v", block: func(t *testing.T, net *refitNet) *Request {
			// Only node 1 holds the value, so the read round's max is not
			// at a quorum and the acquire writes it back.
			net.nodes[1].Store.Apply(5, []byte("v"), llc.Stamp{Ver: 3, MID: 1})
			r := net.issue(&Request{Code: OpAcquire, Key: 5})
			net.exchange(1)
			if ph := net.nodes[0].workers[0].sessions[0].ops.rd.rd.Phase; ph != abd.ReadWriteBack {
				t.Fatalf("acquire in phase %v, want the write-back round", ph)
			}
			return r
		}},
		{name: "slow-read", nodes: 2, slowPath: true, block: func(t *testing.T, net *refitNet) *Request {
			return net.issue(&Request{Code: OpRead, Key: 5})
		}},
		{name: "slow-write", nodes: 2, slowPath: true, block: func(t *testing.T, net *refitNet) *Request {
			return net.issue(&Request{Code: OpWrite, Key: 5, Val: []byte("v")})
		}},
		{name: "faa-propose", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			return net.issue(&Request{Code: OpFAA, Key: 9, Delta: 1})
		}},
		{name: "faa-accept", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			r := net.issue(&Request{Code: OpFAA, Key: 9, Delta: 1})
			net.exchange(1)
			if ph := net.nodes[0].workers[0].sessions[0].ops.rmw.prop.Phase; ph != paxos.PhaseAccept {
				t.Fatalf("FAA in phase %v, want accept", ph)
			}
			return r
		}},
		{name: "faa-commit", nodes: 2, block: func(t *testing.T, net *refitNet) *Request {
			r := net.issue(&Request{Code: OpFAA, Key: 9, Delta: 1})
			net.exchange(1)
			net.exchange(1)
			if ph := net.nodes[0].workers[0].sessions[0].ops.rmw.prop.Phase; ph != paxos.PhaseCommit {
				t.Fatalf("FAA in phase %v, want commit", ph)
			}
			return r
		}},
		{name: "slow-release-barrier", nodes: 3, block: func(t *testing.T, net *refitNet) *Request {
			// A write acked by a quorum {0,1} but not by node 2 holds the
			// barrier; its timeout publishes the DM-set, which nobody
			// else acks.
			net.issue(&Request{Code: OpWrite, Key: 7, Val: []byte("w")})
			net.exchange(1)
			r := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("v")})
			net.exchange(1)
			w := net.nodes[0].workers[0]
			w.now = w.now.Add(time.Hour)
			w.scanDeadlines()
			if bar := &w.sessions[0].ops.rel.bar; !bar.slowSent() || bar.done {
				t.Fatal("barrier did not publish its DM-set")
			}
			return r
		}},
		{name: "flush-pending", nodes: 2, validate: 7, block: func(t *testing.T, net *refitNet) *Request {
			// Node 1 never sees the write, so the flush waits on its ack.
			net.issue(&Request{Code: OpWrite, Key: 7, Val: []byte("w")})
			return net.issue(&Request{Code: OpFlush})
		}},
		{name: "flush-settled", nodes: 3, members: 0b011, validate: 7, block: func(t *testing.T, net *refitNet) *Request {
			// A write acked by {0,1} is settled by a slow release whose
			// DM-set {0,1} acks; the flush still waits on node 2's ack.
			net.issue(&Request{Code: OpWrite, Key: 7, Val: []byte("w")})
			net.exchange(1)
			rel := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("v")})
			net.exchange(1)
			w := net.nodes[0].workers[0]
			w.now = w.now.Add(time.Hour)
			w.scanDeadlines()
			net.exchange(1) // the DM-set quorates and the writes settle
			net.exchange(1) // the value round
			if !net.done[rel] {
				t.Fatal("slow release did not complete")
			}
			if tr := w.sessions[0].tracker; !tr.AllAcked() || tr.FullyAcked() {
				t.Fatal("the write is not settled")
			}
			return net.issue(&Request{Code: OpFlush})
		}},
		{name: "release-barrier", nodes: 2, validate: 7, block: func(t *testing.T, net *refitNet) *Request {
			net.issue(&Request{Code: OpWrite, Key: 7, Val: []byte("w")})
			w := net.nodes[0].workers[0]
			w.out[1] = w.out[1][:0] // the broadcast is lost
			r := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("v")})
			net.exchange(1) // the LLC round quorates; only the barrier holds
			if op := &w.sessions[0].ops.rel; op.bar.done || op.wr.Phase != abd.WriteValue {
				t.Fatalf("release in phase %v (barrier done %v), want waiting on the barrier", op.wr.Phase, op.bar.done)
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newRefitNet(t, tc.nodes, 1, tc.slowPath)
			r := tc.block(t, net)
			if net.done[r] {
				t.Fatal("completed while its round was blocked")
			}
			nd := net.nodes[0]
			members := tc.members
			if members == 0 {
				members = 0b1
			}
			if !nd.InstallConfig(membership.Config{Epoch: 1, Members: members}) {
				t.Fatal("install refused")
			}
			w := nd.workers[0]
			w.applyConfig()
			if !net.done[r] || r.Err != nil {
				t.Fatalf("still blocked after the members were removed (done=%v err=%v)", net.done[r], r.Err)
			}
			if tc.want != "" && string(r.Out) != tc.want {
				t.Fatalf("result %q, want %q", r.Out, tc.want)
			}
			if !w.sessions[0].tracker.FullyAcked() {
				t.Fatal("the ledger still holds writes")
			}
			if tc.validate != 0 && !slices.Contains(validatedKeys(w), tc.validate) {
				t.Fatalf("key %d not queued for validation (pending %v)", tc.validate, w.pendingVal)
			}
		})
	}
}

// validatedKeys lists the keys of the worker's queued validate pairs.
func validatedKeys(w *Worker) []uint64 {
	var keys []uint64
	for i := 0; i+1 < len(w.pendingVal); i += 2 {
		keys = append(keys, w.pendingVal[i])
	}
	return keys
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

// TestReplyRoutingDropsUnownedReplies pins reply routing by op id (the
// layout of Worker.nextOpID). Reply ids come off the wire, so a reply
// reaches a write ledger or a head op only when its id names this node's
// incarnation, a session this worker owns, and an op that session still
// holds. Each row's reply names something else: it must be dropped without
// a panic and without touching any session — another worker's above all,
// which would be a data race.
func TestReplyRoutingDropsUnownedReplies(t *testing.T) {
	net := newRefitNet(t, 3, 2, false)
	nd := net.nodes[0]
	w := nd.workers[0]
	// Worker 0 runs session 0 and the admin session, worker 1 session 1.
	s0, admin, theirs := w.sessions[0], w.sessions[1], nd.workers[1].sessions[0]
	ledgered := func(s *Session, key uint64) *es.Write {
		t.Helper()
		for e := range s.tracker.All() {
			if e.Msg.Key == key {
				return e
			}
		}
		t.Fatalf("no write to key %d in session %d's ledger", key, s.idx)
		return nil
	}

	// A release that completes; the next one reuses its op in place.
	r1 := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("a")})
	replaced := s0.headID
	net.exchange(1)
	net.exchange(1)
	if !net.done[r1] {
		t.Fatal("first release did not complete")
	}
	// Write 7 never reaches node 2; write 8 is acked by all and gone.
	net.issue(&Request{Code: OpWrite, Key: 7, Val: []byte("w")})
	w.out[2] = w.out[2][:0]
	net.issue(&Request{Code: OpWrite, Key: 8, Val: []byte("x")})
	gone := ledgered(s0, 8).Msg.OpID
	net.exchange(1)
	net.deliver(0, 2)
	net.deliver(2, 0)
	held := ledgered(s0, 7)
	// The head: a release whose barrier waits on write 7 and whose LLC
	// round has only the local reply. And a write of worker 1's session.
	r2 := net.issue(&Request{Code: OpRelease, Key: 5, Val: []byte("b")})
	head := s0.headID
	tally := *s0.ops.rel.wr.Tally()
	net.issueOn(theirs, &Request{Code: OpWrite, Key: 9, Val: []byte("y")})
	foreign := ledgered(theirs, 9)

	reply := func(kind proto.Kind, from uint8, id uint64) proto.Message {
		return proto.Message{Kind: kind, From: from, OpID: id, Epoch: nd.ConfigEpoch()}
	}
	field := func(id uint64, shift, width uint, v uint64) uint64 {
		mask := (uint64(1)<<width - 1) << shift
		return id&^mask | v<<shift&mask
	}
	for _, tc := range []struct {
		name string
		m    proto.Message
	}{
		{"another node's write", reply(proto.KindESAck, 2, field(held.Msg.OpID, 56, 8, 1))},
		{"another node's head", reply(proto.KindReadTSReply, 2, field(head, 56, 8, 2))},
		{"another incarnation", reply(proto.KindReadTSReply, 2, field(head, 40, 16, 1))},
		// Indexes this worker would own (session i runs on worker i mod
		// Workers) but past its sessions, the admin session included.
		{"session past the admin session", reply(proto.KindReadTSReply, 2, field(head, 32, 8, uint64(len(nd.sessions)+len(nd.workers))))},
		{"session index 254", reply(proto.KindESAck, 2, field(held.Msg.OpID, 32, 8, 254))},
		{"session of another worker", reply(proto.KindESAck, 1, foreign.Msg.OpID)},
		{"admin session, no head", reply(proto.KindReadTSReply, 2, field(head, 32, 8, uint64(admin.idx)))},
		{"head replaced in place", reply(proto.KindReadTSReply, 2, replaced)},
		{"write no longer ledgered", reply(proto.KindESAck, 2, gone)},
		{"catch-up reply without a sweep", reply(proto.KindCatchupEnd, 2, catchupOpID(nd.ID))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			staged := len(w.out[1]) + len(w.out[2])
			w.dispatch(&tc.m)
			switch {
			case s0.tracker.Missing(held) != 0b100:
				t.Fatalf("write 7 now misses %03b, want 100", s0.tracker.Missing(held))
			case theirs.tracker.Missing(foreign) != 0b110:
				t.Fatalf("worker 1's write now misses %03b, want 110", theirs.tracker.Missing(foreign))
			case s0.head == nil || s0.headID != head || net.done[r2] || *s0.ops.rel.wr.Tally() != tally:
				t.Fatal("the head release was touched")
			case admin.head != nil || len(w.out[1])+len(w.out[2]) != staged:
				t.Fatal("the reply set something in motion")
			}
		})
	}

	// The genuine replies still route: node 2's LLC reply to the head, then
	// its ack of write 7, which releases the barrier.
	w.dispatch(ptr(reply(proto.KindReadTSReply, 2, head)))
	if *s0.ops.rel.wr.Tally() == tally {
		t.Fatal("the head's own reply was not counted")
	}
	w.dispatch(ptr(reply(proto.KindESAck, 2, held.Msg.OpID)))
	if !s0.tracker.FullyAcked() || !s0.ops.rel.bar.done {
		t.Fatal("the ledger's own ack was not counted")
	}
}

func ptr[T any](v T) *T { return &v }
