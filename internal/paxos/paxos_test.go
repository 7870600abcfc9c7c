package paxos

import (
	"testing"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/proto"
)

func propose(key, slot uint64, ballot llc.Stamp, from uint8) *proto.Message {
	return &proto.Message{Kind: proto.KindPropose, From: from, Key: key,
		OpID: 1, Slot: slot, Stamp: ballot}
}

func accept(key, slot uint64, ballot llc.Stamp, val string, from uint8) *proto.Message {
	return &proto.Message{Kind: proto.KindAccept, From: from, Key: key,
		OpID: 1, Slot: slot, Stamp: ballot, Value: []byte(val)}
}

func TestHandleProposePromise(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	b1 := llc.Stamp{Ver: 1, MID: 1}
	rep := HandlePropose(s, propose(5, 0, b1, 1), 0, buf)
	if rep.Flags&proto.FlagNack != 0 {
		t.Fatalf("first propose nacked: %+v", rep)
	}
	// A lower ballot is rejected with the promised ballot echoed.
	b0 := llc.Stamp{Ver: 1, MID: 0}
	rep = HandlePropose(s, propose(5, 0, b0, 0), 0, buf)
	if rep.Flags&proto.FlagNack == 0 || rep.Stamp != b1 {
		t.Fatalf("lower ballot accepted: %+v", rep)
	}
	// Equal ballot is also rejected (promise is strict).
	rep = HandlePropose(s, propose(5, 0, b1, 1), 0, buf)
	if rep.Flags&proto.FlagNack == 0 {
		t.Fatal("equal ballot re-promised")
	}
	// A higher ballot supersedes.
	b2 := llc.Stamp{Ver: 2, MID: 0}
	rep = HandlePropose(s, propose(5, 0, b2, 0), 0, buf)
	if rep.Flags&proto.FlagNack != 0 {
		t.Fatal("higher ballot nacked")
	}
}

func TestHandleAcceptRequiresPromise(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	b1 := llc.Stamp{Ver: 1, MID: 1}
	b2 := llc.Stamp{Ver: 2, MID: 0}
	HandlePropose(s, propose(5, 0, b2, 0), 0, buf)
	// Accept below the promise is nacked.
	rep := HandleAccept(s, accept(5, 0, b1, "x", 1), 0, buf)
	if rep.Flags&proto.FlagNack == 0 || rep.Stamp != b2 {
		t.Fatalf("low accept taken: %+v", rep)
	}
	// Accept at the promise succeeds.
	rep = HandleAccept(s, accept(5, 0, b2, "y", 0), 0, buf)
	if rep.Flags&proto.FlagNack != 0 {
		t.Fatal("accept at promise nacked")
	}
	// The accepted value now surfaces in later promises.
	b3 := llc.Stamp{Ver: 3, MID: 1}
	rep = HandlePropose(s, propose(5, 0, b3, 1), 0, buf)
	if rep.Flags&proto.FlagHasAccepted == 0 || string(rep.Value) != "y" || rep.Stamp != b2 {
		t.Fatalf("accepted value not exposed: %+v", rep)
	}
}

func TestHandleSlotMismatch(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	b := llc.Stamp{Ver: 5, MID: 0}
	// Commit slot 0 so the replica sits at slot 1.
	if !ApplyCommit(s, 5, 0, b, []byte("v0"), 1001, nil) {
		t.Fatal("commit did not advance")
	}
	// Stale proposer (slot 0): nacked with committed state for catch-up.
	rep := HandlePropose(s, propose(5, 0, llc.Stamp{Ver: 9, MID: 1}, 1), 0, buf)
	if rep.Flags&(proto.FlagNack|proto.FlagCommitted) != proto.FlagNack|proto.FlagCommitted {
		t.Fatalf("stale propose flags %08b", rep.Flags)
	}
	if rep.Slot != 1 || string(rep.Value) != "v0" || rep.Stamp != b {
		t.Fatalf("catch-up payload %+v", rep)
	}
	// Future proposer (slot 2): plain nack carrying our slot.
	rep = HandlePropose(s, propose(5, 2, llc.Stamp{Ver: 9, MID: 1}, 1), 0, buf)
	if rep.Flags&proto.FlagNack == 0 || rep.Flags&proto.FlagCommitted != 0 || rep.Slot != 1 {
		t.Fatalf("behind nack %+v", rep)
	}
	// Same for accepts.
	rep = HandleAccept(s, accept(5, 0, b, "x", 1), 0, buf)
	if rep.Flags&proto.FlagCommitted == 0 {
		t.Fatal("stale accept lacks committed flag")
	}
}

func TestApplyCommitIdempotentAndSkips(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	b0 := llc.Stamp{Ver: 1, MID: 0}
	b3 := llc.Stamp{Ver: 7, MID: 2}
	if !ApplyCommit(s, 9, 0, b0, []byte("a"), 2001, nil) {
		t.Fatal("commit 0 failed")
	}
	if ApplyCommit(s, 9, 0, b0, []byte("a"), 2001, nil) {
		t.Fatal("re-commit advanced")
	}
	// Skipping to slot 3 adopts the later value directly.
	if !ApplyCommit(s, 9, 3, b3, []byte("d"), 2002, nil) {
		t.Fatal("skip commit failed")
	}
	snap := ReadCommitted(s, 9, buf)
	if snap.Slot != 4 || string(snap.Val) != "d" || snap.Stamp != b3 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Promise state reset after commit: an old ballot can promise again.
	rep := HandlePropose(s, propose(9, 4, llc.Stamp{Ver: 8, MID: 0}, 0), 0, buf)
	if rep.Flags&proto.FlagNack != 0 || rep.Flags&proto.FlagHasAccepted != 0 {
		t.Fatalf("post-commit propose %+v", rep)
	}
}

func TestAllocBallotUniqueAndIncreasing(t *testing.T) {
	s := kvs.New(64)
	var last llc.Stamp
	for i := 0; i < 100; i++ {
		b := AllocBallot(s, 3, 2, llc.Zero)
		if !last.Less(b) {
			t.Fatalf("ballot %v not above %v", b, last)
		}
		last = b
	}
	// atLeast pushes the allocator forward.
	b := AllocBallot(s, 3, 2, llc.Stamp{Ver: 1000, MID: 0})
	if b.Ver != 1001 {
		t.Fatalf("atLeast ignored: %v", b)
	}
}

func TestHandleCommitAndLearn(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	m := &proto.Message{Kind: proto.KindCommit, From: 1, Key: 4, OpID: 9,
		Slot: 0, Stamp: llc.Stamp{Ver: 2, MID: 1}, Value: []byte("c")}
	rep := HandleCommit(s, m, 0)
	if rep.Kind != proto.KindCommitAck || rep.OpID != 9 {
		t.Fatalf("commit ack %+v", rep)
	}
	l := &proto.Message{Kind: proto.KindPaxosLearn, From: 1, Key: 4,
		Slot: 2, Stamp: llc.Stamp{Ver: 5, MID: 1}, Value: []byte("e")}
	HandleLearn(s, l)
	if snap := ReadCommitted(s, 4, buf); snap.Slot != 3 || string(snap.Val) != "e" {
		t.Fatalf("committed state after learn: slot %d value %q", snap.Slot, snap.Val)
	}
}

// --- Proposer state machine -------------------------------------------------

// ackOK crafts an OK reply for the proposer's first attempt (Start bumps
// the attempt tag to 1; replies must echo it or they are ignored).
func ackOK(from uint8) *proto.Message {
	return &proto.Message{From: from, Bits: 1}
}

func TestProposerHappyPath(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	p.Start(0, llc.Stamp{Ver: 1, MID: 0}, []byte("mine"))
	if got := p.OnProposeAck(ackOK(0)); got != ActWait {
		t.Fatalf("act %v", got)
	}
	if got := p.OnProposeAck(ackOK(1)); got != ActAccept {
		t.Fatalf("act %v, want accept", got)
	}
	if p.Helping() || string(p.Val) != "mine" {
		t.Fatal("value mangled")
	}
	if got := p.OnAcceptAck(ackOK(0)); got != ActWait {
		t.Fatalf("act %v", got)
	}
	if got := p.OnAcceptAck(ackOK(2)); got != ActCommit {
		t.Fatalf("act %v, want commit", got)
	}
	if got := p.OnCommitAck(ackOK(0)); got != ActWait {
		t.Fatalf("act %v", got)
	}
	if got := p.OnCommitAck(ackOK(1)); got != ActDone {
		t.Fatalf("act %v, want done", got)
	}
}

func TestProposerAdoptsForeignAccepted(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	p.Start(0, llc.Stamp{Ver: 5, MID: 0}, []byte("mine"))
	withAcc := &proto.Message{From: 1, Flags: proto.FlagHasAccepted, Bits: 1,
		Stamp: llc.Stamp{Ver: 2, MID: 1}, Value: []byte("theirs")}
	p.OnProposeAck(withAcc)
	if got := p.OnProposeAck(ackOK(0)); got != ActAccept {
		t.Fatalf("act %v", got)
	}
	if !p.Helping() || string(p.Val) != "theirs" {
		t.Fatalf("helping=%v val=%q", p.Helping(), p.Val)
	}
}

func TestProposerRecognisesOwnAccepted(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	b1 := llc.Stamp{Ver: 1, MID: 0}
	p.Start(0, b1, []byte("mine"))
	// First attempt stalls; retry at a higher ballot on the same slot.
	b2 := llc.Stamp{Ver: 9, MID: 0}
	p.Start(0, b2, []byte("mine"))
	// A replica that accepted our *first* ballot reports it, tagged with
	// our op id as the value's origin.
	// Second Start => attempt 2.
	withAcc := &proto.Message{From: 1, Flags: proto.FlagHasAccepted, Bits: 2,
		Stamp: b1, Origin: 10, Value: []byte("mine")}
	p.OnProposeAck(withAcc)
	ok2 := &proto.Message{From: 0, Bits: 2}
	if got := p.OnProposeAck(ok2); got != ActAccept {
		t.Fatalf("act %v", got)
	}
	if p.Helping() {
		t.Fatal("own value treated as foreign")
	}
}

func TestProposerRetryOnHigherPromise(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	p.Start(0, llc.Stamp{Ver: 1, MID: 0}, []byte("mine"))
	hi := llc.Stamp{Ver: 8, MID: 2}
	nack := &proto.Message{From: 1, Flags: proto.FlagNack, Bits: 1, Slot: 0, Stamp: hi}
	p.OnProposeAck(nack)
	nack2 := &proto.Message{From: 2, Flags: proto.FlagNack, Bits: 1, Slot: 0, Stamp: hi}
	if got := p.OnProposeAck(nack2); got != ActRetry {
		t.Fatalf("act %v, want retry", got)
	}
	if p.NextBallotFloor() != hi {
		t.Fatalf("floor %v", p.NextBallotFloor())
	}
}

func TestProposerRestartOnCommittedNack(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	p.Start(2, llc.Stamp{Ver: 4, MID: 0}, []byte("mine"))
	cn := &proto.Message{From: 1, Flags: proto.FlagNack | proto.FlagCommitted, Bits: 1,
		Slot: 5, Stamp: llc.Stamp{Ver: 9, MID: 1}, Value: []byte("newer")}
	// A single committed-nack must NOT trigger a restart: the proposer
	// waits for a quorum of replies so an own-committed witness cannot be
	// missed (the exactly-once probe).
	if got := p.OnProposeAck(cn); got != ActWait {
		t.Fatalf("act %v, want wait after one reply", got)
	}
	cn2 := &proto.Message{From: 2, Flags: proto.FlagNack | proto.FlagCommitted, Bits: 1,
		Slot: 5, Stamp: llc.Stamp{Ver: 9, MID: 1}, Value: []byte("newer")}
	// Quorum of committed-nacks without an authoritative slot verdict: the
	// restart goes pending until the full round (or the caller's grace
	// deadline forces it).
	if got := p.OnProposeAck(cn2); got != ActWait {
		t.Fatalf("act %v, want pending wait at quorum", got)
	}
	if !p.PendingRestart() {
		t.Fatal("restart not pending")
	}
	cn3 := &proto.Message{From: 0, Flags: proto.FlagNack | proto.FlagCommitted, Bits: 1,
		Slot: 5, Stamp: llc.Stamp{Ver: 9, MID: 1}, Value: []byte("newer")}
	if got := p.OnProposeAck(cn3); got != ActRestart {
		t.Fatalf("act %v, want restart at full round", got)
	}
	slot, st, val, origin, ok := p.CatchUp()
	if !ok || slot != 5 || string(val) != "newer" || st != (llc.Stamp{Ver: 9, MID: 1}) || origin != 0 {
		t.Fatalf("catch-up %v %v %q %d %v", slot, st, val, origin, ok)
	}
}

func TestProposerTracksBehindReplicas(t *testing.T) {
	p := NewProposer(1, 10, 0, 5)
	p.Start(3, llc.Stamp{Ver: 4, MID: 0}, []byte("m"))
	behind := &proto.Message{From: 4, Flags: proto.FlagNack, Bits: 1, Slot: 1}
	p.OnProposeAck(behind)
	if p.Behind != 1<<4 {
		t.Fatalf("behind mask %05b", p.Behind)
	}
	// Quorum of oks still wins the round despite the straggler.
	p.OnProposeAck(ackOK(0))
	p.OnProposeAck(ackOK(1))
	if got := p.OnProposeAck(ackOK(2)); got != ActAccept {
		t.Fatalf("act %v", got)
	}
}

func TestProposerDelinquencyPiggyback(t *testing.T) {
	p := NewProposer(1, 10, 0, 3)
	p.Start(0, llc.Stamp{Ver: 1, MID: 0}, []byte("m"))
	d := &proto.Message{From: 1, Flags: proto.FlagDelinquent, Bits: 1}
	p.OnProposeAck(d)
	if !p.Delinquent {
		t.Fatal("delinquent flag not folded")
	}
	if p.DelinqMask != 1<<1 {
		t.Fatalf("delinq mask = %b, want %b", p.DelinqMask, 1<<1)
	}
}

func TestProposerDuplicateRepliesIgnored(t *testing.T) {
	p := NewProposer(1, 10, 0, 5)
	p.Start(0, llc.Stamp{Ver: 1, MID: 0}, []byte("m"))
	for i := 0; i < 5; i++ {
		if got := p.OnProposeAck(ackOK(3)); got == ActAccept {
			t.Fatal("duplicates formed quorum")
		}
	}
	if got := p.Tally().Missing(membership.Initial(5)); got != 0b10111 {
		t.Fatalf("missing %05b", got)
	}
}

// TestProposerRefitResolvesEveryPhase: each phase's round, blocked only on
// members a reconfiguration removes, resolves on Decide after the tally is
// refit — and a removed member's promise stops counting.
func TestProposerRefitResolvesEveryPhase(t *testing.T) {
	five := membership.Initial(5) // quorum 3
	p := NewProposer(1, 10, 0, five.N())
	p.Start(0, llc.Stamp{Ver: 1, MID: 0}, []byte("m"))
	p.OnProposeAck(ackOK(0))
	p.OnProposeAck(ackOK(4))
	// Removing node 4 takes its promise away: {0,1,2,3}, quorum 3, one ok.
	cfg := five.Remove(4)
	p.Tally().Refit(cfg)
	if got := p.Decide(); got != ActWait {
		t.Fatalf("propose refit = %v, want wait", got)
	}
	p.OnProposeAck(ackOK(1))
	// {0,1,2}: quorum 2, two oks — the promise round resolves.
	cfg = cfg.Remove(3)
	p.Tally().Refit(cfg)
	if got := p.Decide(); got != ActAccept {
		t.Fatalf("propose refit = %v, want accept", got)
	}
	p.OnAcceptAck(ackOK(0))
	cfg = cfg.Remove(2) // {0,1}: quorum 2
	p.Tally().Refit(cfg)
	if got := p.Decide(); got != ActWait {
		t.Fatalf("accept refit = %v, want wait", got)
	}
	cfg = cfg.Remove(1) // {0}: quorum 1
	p.Tally().Refit(cfg)
	if got := p.Decide(); got != ActCommit {
		t.Fatalf("accept refit = %v, want commit", got)
	}
	p.OnCommitAck(ackOK(0))
	if p.Phase != PhaseDone {
		t.Fatalf("commit round under {0} not done: %v", p.Phase)
	}
	if got := p.Decide(); got != ActWait {
		t.Fatalf("Decide on a done proposer = %v", got)
	}
}

// TestThreeReplicaRMWSequence drives two sequential RMWs end-to-end over
// three in-memory replicas, checking slot advancement and value evolution.
func TestThreeReplicaRMWSequence(t *testing.T) {
	const n = 3
	stores := [n]*kvs.Store{kvs.New(64), kvs.New(64), kvs.New(64)}
	buf := make([]byte, kvs.MaxValueLen)

	// runRMW drives one RMW to completion, handling catch-up restarts —
	// e.g. when the proposer's replica missed an earlier commit because the
	// previous committer stopped broadcasting at its quorum.
	var opSeq uint64
	runRMW := func(proposerNode uint8, val string) {
		s := stores[proposerNode]
		opSeq++
		p := NewProposer(7, opSeq, proposerNode, n)
		for attempt := 0; attempt < 10; attempt++ {
			snap := ReadCommitted(s, 7, buf)
			b := AllocBallot(s, 7, proposerNode, p.NextBallotFloor())
			p.Start(snap.Slot, b, []byte(val))
			pm := p.ProposeMsg(proposerNode, 0)
			act := ActWait
			for i := uint8(0); i < n && act == ActWait; i++ {
				rep := HandlePropose(stores[i], &pm, i, buf)
				act = p.OnProposeAck(&rep)
			}
			if act == ActRestart {
				if slot, st, cv, origin, ok := p.CatchUp(); ok {
					ApplyCommit(s, 7, slot-1, st, cv, origin, p.CatchUpOrigins())
				}
				continue
			}
			if act != ActAccept {
				t.Fatalf("propose round: %v", act)
			}
			am := p.AcceptMsg(proposerNode, 0)
			act = ActWait
			for i := uint8(0); i < n && act == ActWait; i++ {
				rep := HandleAccept(stores[i], &am, i, buf)
				act = p.OnAcceptAck(&rep)
			}
			if act != ActCommit {
				t.Fatalf("accept round: %v", act)
			}
			cm := p.CommitMsg(proposerNode, 0)
			act = ActWait
			for i := uint8(0); i < n && act == ActWait; i++ {
				rep := HandleCommit(stores[i], &cm, i)
				act = p.OnCommitAck(&rep)
			}
			if act != ActDone {
				t.Fatalf("commit round: %v", act)
			}
			return
		}
		t.Fatal("RMW did not complete in 10 attempts")
	}

	runRMW(0, "first")
	runRMW(2, "second")
	// The committer stops at its ack quorum, so only a quorum is guaranteed
	// to hold the final state; check agreement over a quorum.
	upToDate := 0
	for i := uint8(0); i < n; i++ {
		snap := ReadCommitted(stores[i], 7, buf)
		if snap.Slot == 2 && string(snap.Val) == "second" {
			upToDate++
		}
	}
	if upToDate < 2 {
		t.Fatalf("only %d replicas hold the final state", upToDate)
	}
}

// TestDuelingProposersOneWins: two proposers race for slot 0; the Paxos
// invariant is that at most one value is chosen. We simulate the classic
// interleaving where proposer B's propose supersedes A's promise before A's
// accept lands, so A is nacked and must retry — and on retry A must adopt
// B's accepted value.
func TestDuelingProposersOneWins(t *testing.T) {
	const n = 3
	stores := [n]*kvs.Store{kvs.New(64), kvs.New(64), kvs.New(64)}
	buf := make([]byte, kvs.MaxValueLen)

	pa := NewProposer(7, 1, 0, n)
	ba := AllocBallot(stores[0], 7, 0, llc.Zero)
	pa.Start(0, ba, []byte("A"))
	pb := NewProposer(7, 2, 1, n)
	bb := AllocBallot(stores[1], 7, 1, ba) // strictly higher than A's
	pb.Start(0, bb, []byte("B"))

	// A's propose reaches everyone first.
	pma := pa.ProposeMsg(0, 0)
	for i := uint8(0); i < n; i++ {
		rep := HandlePropose(stores[i], &pma, i, buf)
		pa.OnProposeAck(&rep)
	}
	// Then B's propose supersedes the promises.
	pmb := pb.ProposeMsg(1, 0)
	for i := uint8(0); i < n; i++ {
		rep := HandlePropose(stores[i], &pmb, i, buf)
		pb.OnProposeAck(&rep)
	}
	// B accepts everywhere.
	amb := pb.AcceptMsg(1, 0)
	for i := uint8(0); i < n; i++ {
		rep := HandleAccept(stores[i], &amb, i, buf)
		pb.OnAcceptAck(&rep)
	}
	// B commits everywhere.
	cmb := pb.CommitMsg(1, 0)
	for i := uint8(0); i < n; i++ {
		rep := HandleCommit(stores[i], &cmb, i)
		pb.OnCommitAck(&rep)
	}
	// A's accept now hits committed slots everywhere: it must learn the
	// committed state and restart at the next slot (not blindly retry).
	ama := pa.AcceptMsg(0, 0)
	var act Action
	for i := uint8(0); i < n; i++ {
		rep := HandleAccept(stores[i], &ama, i, buf)
		if a := pa.OnAcceptAck(&rep); a != ActWait {
			act = a
			break
		}
	}
	if act != ActRestart {
		t.Fatalf("A's accept round: %v, want restart", act)
	}
	slot, st, cv, origin, ok := pa.CatchUp()
	if !ok || slot != 1 || string(cv) != "B" || origin != 2 {
		t.Fatalf("catch-up: slot=%d val=%q origin=%d ok=%v", slot, cv, origin, ok)
	}
	ApplyCommit(stores[0], 7, slot-1, st, cv, origin, pa.CatchUpOrigins())
	// A re-proposes its own value at slot 1 with a fresh ballot; the slot
	// is clean, so no adoption happens.
	ba2 := AllocBallot(stores[0], 7, 0, pa.NextBallotFloor())
	pa.Start(1, ba2, []byte("A"))
	pma2 := pa.ProposeMsg(0, 0)
	for i := uint8(0); i < n; i++ {
		rep := HandlePropose(stores[i], &pma2, i, buf)
		if a := pa.OnProposeAck(&rep); a != ActWait {
			act = a
			break
		}
	}
	if act != ActAccept || pa.Helping() || string(pa.Val) != "A" {
		t.Fatalf("A at slot 1: act=%v helping=%v val=%q", act, pa.Helping(), pa.Val)
	}
}
