package paxos

import (
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/proto"
)

// Phase enumerates the proposer state machine's phases.
type Phase uint8

// Proposer phases.
const (
	PhasePropose Phase = iota
	PhaseAccept
	PhaseCommit
	PhaseDone
)

// Action tells the driving worker what to do after folding a reply.
type Action uint8

// Proposer actions.
const (
	ActWait    Action = iota // keep collecting replies
	ActAccept                // quorum promised: broadcast AcceptMsg
	ActCommit                // quorum accepted: apply locally, broadcast CommitMsg
	ActDone                  // quorum of commit acks: RMW complete
	ActRestart               // committed state moved under us: catch up and re-propose
	ActRetry                 // outpaced by a higher ballot: re-propose with a higher one after backoff
	// ActAlreadyCommitted: a replica reported that this RMW's value was
	// already committed (driven by a helper). Catch up and finish without
	// re-executing — the exactly-once path.
	ActAlreadyCommitted
)

// Proposer drives one RMW through per-key Paxos. The worker owns
// broadcasting; the proposer folds replies and reports the next Action.
//
// Lifecycle: the core computes the RMW's new value from the local committed
// snapshot, calls Start, broadcasts ProposeMsg, and feeds replies in. On
// ActRestart the core refreshes its snapshot (CatchUp has already been
// applied), recomputes the value and calls Start again. When the proposer
// wins a slot with an *adopted* value (helping a stranded proposal), it
// reports Helping()==true at ActDone-equivalent commit completion, and the
// core restarts for its own value at the next slot.
type Proposer struct {
	Key  uint64
	OpID uint64
	MID  uint8

	Phase  Phase
	Slot   uint64
	Ballot llc.Stamp
	Val    []byte // value being driven this attempt (ours, or adopted)

	// Delinquent accumulates the piggybacked acquire-side flags (§4.2);
	// DelinqMask records which counted repliers flagged, so the reset-bit
	// goes only to them (see abd.ReadOp.DelinqMask for why).
	Delinquent bool
	DelinqMask uint16

	ownVal []byte // the RMW's own value for the current snapshot

	// valOrigin identifies the RMW that produced Val (our own OpID, or the
	// adopted value's origin). It rides in accepts/commits so replicas can
	// filter duplicate executions of helped RMWs.
	valOrigin uint64

	helping      bool // current Val is an adopted foreign value
	ownCommitted bool // a replica reported our RMW already committed
	slotLost     bool // authoritative: our slot was decided by another RMW

	// Catch-up state observed in committed-nacks.
	ccSlot    uint64
	ccStamp   llc.Stamp
	ccVal     []byte
	ccOrigin  uint64
	ccOrigins []uint64
	ccSeen    bool

	// Behind replicas to send PaxosLearn to.
	Behind uint16

	maxPromised llc.Stamp // highest foreign promise seen in nacks

	// round counts the current phase's repliers; oks are those among them
	// that did not nack.
	round     membership.Tally
	oks       uint16
	accBest   llc.Stamp
	accVal    []byte
	accOrigin uint64

	// attempt tags every round's messages (echoed in replies) so replies
	// from an abandoned earlier attempt — possibly for a different slot —
	// cannot contaminate the current round's promise/accept bookkeeping.
	attempt uint16

	// pendingRestart marks a quorum-supported restart that is waiting for
	// the full round (or a grace period) before executing, in case a
	// not-yet-heard replica holds own-committed evidence for this op.
	pendingRestart bool
}

// NewProposer creates a proposer for an n-replica deployment.
func NewProposer(key, opID uint64, mid uint8, n int) *Proposer {
	return &Proposer{Key: key, OpID: opID, MID: mid, round: membership.NewTally(n)}
}

// Start arms an attempt at slot with ballot, proposing ownVal (the RMW's
// value computed against the committed snapshot for this slot). ownVal is
// copied: the proposer's value must stay immutable for the attempt even if
// the caller reuses its buffer.
func (p *Proposer) Start(slot uint64, ballot llc.Stamp, ownVal []byte) {
	p.attempt++
	p.Slot = slot
	p.Ballot = ballot
	p.ownVal = append(p.ownVal[:0], ownVal...)
	p.Val = p.ownVal
	p.valOrigin = p.OpID
	p.helping = false
	p.Phase = PhasePropose
	p.round.Reset()
	p.oks = 0
	p.accBest, p.accVal, p.accOrigin = llc.Zero, nil, 0
	p.maxPromised = llc.Zero
	p.ccSeen = false
	p.pendingRestart = false
	p.slotLost = false
	p.Behind = 0
}

// Helping reports whether the value being driven was adopted from a
// stranded foreign proposal.
func (p *Proposer) Helping() bool { return p.helping }

// CatchUp returns the best committed state gleaned from nacks, if any.
func (p *Proposer) CatchUp() (slot uint64, stamp llc.Stamp, val []byte, origin uint64, ok bool) {
	return p.ccSlot, p.ccStamp, p.ccVal, p.ccOrigin, p.ccSeen
}

// CatchUpOrigins returns the recent committed origins carried by the best
// committed-nack, for ring inheritance on the local replica.
func (p *Proposer) CatchUpOrigins() []uint64 { return p.ccOrigins }

// NextBallotFloor returns the stamp a retry ballot must exceed.
func (p *Proposer) NextBallotFloor() llc.Stamp { return llc.Max(p.maxPromised, p.Ballot) }

// ProposeMsg builds the phase-1 broadcast.
func (p *Proposer) ProposeMsg(self, worker uint8) proto.Message {
	return proto.Message{Kind: proto.KindPropose, From: self, Worker: worker,
		Key: p.Key, OpID: p.OpID, Slot: p.Slot, Stamp: p.Ballot, Bits: p.attempt}
}

// AcceptMsg builds the phase-2 broadcast. The value is copied: messages
// outlive the attempt (staged batches, retransmissions), while the caller's
// value buffer is rewritten on restarts — aliasing it would let a stale
// in-flight accept carry a future attempt's value.
func (p *Proposer) AcceptMsg(self, worker uint8) proto.Message {
	return proto.Message{Kind: proto.KindAccept, From: self, Worker: worker,
		Key: p.Key, OpID: p.OpID, Slot: p.Slot, Stamp: p.Ballot, Bits: p.attempt,
		Origin: p.valOrigin, Value: append([]byte(nil), p.Val...)}
}

// CommitMsg builds the commit broadcast (value copied; see AcceptMsg).
func (p *Proposer) CommitMsg(self, worker uint8) proto.Message {
	return proto.Message{Kind: proto.KindCommit, From: self, Worker: worker,
		Key: p.Key, OpID: p.OpID, Slot: p.Slot, Stamp: p.Ballot, Bits: p.attempt,
		Origin: p.valOrigin, Value: append([]byte(nil), p.Val...)}
}

func (p *Proposer) foldCommon(m *proto.Message) (counted bool) {
	if !p.round.Add(m.From) {
		return false
	}
	bit := uint16(1) << m.From
	if m.Flags&proto.FlagDelinquent != 0 {
		p.Delinquent = true
		p.DelinqMask |= bit
	}
	if m.Flags&proto.FlagNack == 0 {
		p.oks |= bit
		return true
	}
	// Nack bookkeeping.
	if m.Flags&proto.FlagOwnCommitted != 0 {
		// In the propose phase the replica vouched for our own op id; in
		// the accept phase it vouched for the driven value's origin, which
		// is ours only when we are not helping.
		if p.Phase == PhasePropose || !p.helping {
			p.ownCommitted = true
		}
	}
	// Direct committed-evidence: a committed-nack whose recent-origins list
	// names our op proves our RMW already committed, whatever we are
	// currently driving.
	for _, o := range m.Origins {
		if o == p.OpID {
			p.ownCommitted = true
			break
		}
	}
	// Authoritative slot verdict: the replica applied our slot directly
	// and knows who won it.
	if m.Flags&proto.FlagSlotKnown != 0 {
		if m.SlotOrigin == p.OpID {
			p.ownCommitted = true
		} else {
			p.slotLost = true
		}
	}
	switch {
	case m.Flags&proto.FlagCommitted != 0:
		if !p.ccSeen || m.Slot > p.ccSlot {
			p.ccSeen = true
			p.ccSlot = m.Slot
			p.ccStamp = m.Stamp
			p.ccOrigin = m.Origin
			p.ccVal = append(p.ccVal[:0], m.Value...)
			p.ccOrigins = append(p.ccOrigins[:0], m.Origins...)
		}
	case m.Slot < p.Slot:
		p.Behind |= bit
	default:
		p.maxPromised = llc.Max(p.maxPromised, m.Stamp)
	}
	return true
}

// decide resolves the round.
//
// Restarting only after a QUORUM of replies is a safety requirement, not an
// optimisation: this op's value may have been adopted and committed by a
// helper at the current slot. If it was, the commit quorum of that slot all
// hold this op's origin in their rings, and any quorum of our repliers
// intersects that commit quorum — so waiting for a quorum guarantees an
// own-committed witness is heard before we re-execute the RMW against a
// newer base. Restarting on the first committed-nack would double-apply
// helped RMWs.
func (p *Proposer) decide(okAction Action) Action {
	r := p.round
	switch {
	case p.ownCommitted:
		return ActAlreadyCommitted
	case r.Covers(p.oks):
		return okAction
	case !r.Reached():
		return ActWait
	case p.ccSeen:
		// The slot moved on under us. An authoritative verdict (a replica
		// that applied our slot directly says another RMW won it) makes
		// the restart provably safe immediately. Otherwise hear the FULL
		// round if possible: quorum intersection with the commit quorum of
		// an abandoned slot is temporal — a witness that acked the commit
		// of our (helped) value may not have held that knowledge when it
		// replied. A straggler gets one retransmission interval (the
		// caller fires a forced restart on its deadline) before
		// availability wins.
		if p.slotLost || r.Full() {
			return ActRestart
		}
		p.pendingRestart = true
		return ActWait
	case !r.Reachable(p.oks):
		// Can no longer reach a quorum of oks this round.
		return ActRetry
	default:
		return ActWait
	}
}

// PendingRestart reports that a restart has quorum support and is waiting
// only for the full round; the caller may force it after a grace period.
func (p *Proposer) PendingRestart() bool {
	return p.pendingRestart && !p.ownCommitted && p.Phase != PhaseDone
}

// OnProposeAck folds a phase-1 reply.
func (p *Proposer) OnProposeAck(m *proto.Message) Action {
	if p.Phase != PhasePropose || m.Bits != p.attempt {
		return ActWait
	}
	if !p.foldCommon(m) {
		return ActWait
	}
	if m.Flags&proto.FlagNack == 0 && m.Flags&proto.FlagHasAccepted != 0 {
		if p.accBest.Less(m.Stamp) {
			p.accBest = m.Stamp
			p.accOrigin = m.Origin
			p.accVal = append(p.accVal[:0], m.Value...)
		}
	}
	return p.decidePropose()
}

// decidePropose resolves the propose round against the replies recorded so
// far, entering the accept phase when a quorum promised.
func (p *Proposer) decidePropose() Action {
	act := p.decide(ActAccept)
	if act == ActAccept {
		if !p.accBest.IsZero() {
			// A value is in flight at this slot: drive it. If its origin
			// is our own op (an earlier ballot of ours was accepted
			// somewhere), completing it completes our RMW.
			if p.accOrigin == p.OpID {
				p.Val = p.ownVal
				p.valOrigin = p.OpID
				p.helping = false
			} else {
				p.Val = append([]byte(nil), p.accVal...)
				p.valOrigin = p.accOrigin
				p.helping = true
			}
		}
		p.Phase = PhaseAccept
		p.round.Reset()
		p.oks = 0
	}
	return act
}

// OnAcceptAck folds a phase-2 reply.
func (p *Proposer) OnAcceptAck(m *proto.Message) Action {
	if p.Phase != PhaseAccept || m.Bits != p.attempt {
		return ActWait
	}
	if !p.foldCommon(m) {
		return ActWait
	}
	return p.decideAccept()
}

// decideAccept resolves the accept round against the replies recorded so
// far, entering the commit phase when a quorum accepted.
func (p *Proposer) decideAccept() Action {
	act := p.decide(ActCommit)
	if act == ActCommit {
		p.Phase = PhaseCommit
		p.round.Reset()
		p.oks = 0
	}
	return act
}

// Decide resolves the round in flight against the replies counted so far.
// The reply handlers run it after every counted reply; a reconfiguration
// runs it after refitting the tally (Tally), so a round blocked solely on a
// removed member completes instead of retransmitting forever at a node
// whose frames the epoch check rejects. Quorums of the successor
// configuration intersect those of the predecessor for the single-member
// changes reconfiguration commits (DESIGN.md "Membership"), which is what
// makes finishing the round under the new arithmetic safe. The
// reconfiguration CAS itself depends on this for its commit round: a
// removal's commit broadcast installs the shrunk config at the committer
// before the leaver's ack — rejected as a non-member's — could be counted.
func (p *Proposer) Decide() Action {
	switch p.Phase {
	case PhasePropose:
		return p.decidePropose()
	case PhaseAccept:
		return p.decideAccept()
	case PhaseCommit:
		if p.round.Reached() {
			p.Phase = PhaseDone
			return ActDone
		}
	}
	return ActWait
}

// OnCommitAck folds a commit ack.
func (p *Proposer) OnCommitAck(m *proto.Message) Action {
	if p.Phase != PhaseCommit || m.Bits != p.attempt || !p.round.Add(m.From) {
		return ActWait
	}
	return p.Decide()
}

// Tally returns the current phase's reply tally: its Missing set is the
// retransmission target, and a reconfiguration refits it before Decide.
func (p *Proposer) Tally() *membership.Tally { return &p.round }
