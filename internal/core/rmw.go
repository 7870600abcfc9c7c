package core

import (
	"bytes"
	"time"

	"kite/internal/kvs"
	"kite/internal/paxos"
	"kite/internal/proto"
)

// debugRMWTrace, when non-nil, observes rmw op lifecycle events (tests).
var debugRMWTrace func(opID uint64, event string, detail uint64)

func traceRMW(opID uint64, event string, detail uint64) {
	if debugRMWTrace != nil {
		debugRMWTrace(opID, event, detail)
	}
}

// issueRMW implements FAA and CAS (§3.4, §6.1):
//
//   - release semantics: the same barrier as a release gates the first
//     round that exposes the new value (the accept); the propose round —
//     which carries no value — overlaps the barrier wait (§4.3).
//   - acquire semantics: propose replies piggyback the delinquency check;
//     on discovery, the machine epoch is bumped before the session resumes.
//   - a weak CAS whose comparison fails against the local in-epoch value
//     completes locally without any protocol round (§6.1).
//   - otherwise the RMW runs per-key slotted Paxos: helping stranded
//     proposals, catching up on missed commits, retrying past ballot races.
func (w *Worker) issueRMW(s *Session, r *Request) {
	nd := w.node
	epoch := nd.Epoch.Load()
	if r.Code == OpCASWeak && !nd.cfg.DisableFastPath {
		val, _, keyEpoch, ok := nd.Store.View(r.Key, w.scratch[:])
		if ((ok && keyEpoch == epoch) || (!ok && epoch == 0)) && !bytes.Equal(val, r.Expected) {
			r.setOut(val)
			r.Swapped = false
			s.complete(r, nil)
			return
		}
	}
	op := &s.ops.rmw
	*op = rmwOp{id: w.nextOpID(s), sess: s, req: r, epochSnap: epoch}
	op.prop = *paxos.NewProposer(r.Key, op.id, nd.ID, nd.n())
	op.rnd.tally = op.prop.Tally()
	s.head, s.headID = op, op.id
	op.bar.barrierInit(w, s)
	op.propose(w) // overlaps the barrier wait; accepts stay gated
}

type rmwOp struct {
	id   uint64
	sess *Session
	req  *Request
	prop paxos.Proposer
	rnd  round // the Paxos phase in flight
	bar  barrierState

	epochSnap uint64

	// pendingAccept buffers the accept round while the barrier is open.
	pendingAccept bool
	// backoffAt, when set, schedules a re-propose after a ballot race.
	backoffAt time.Time

	// Result computed against the committed base of the current attempt.
	resBuf  [kvs.MaxValueLen]byte
	resLen  int
	swapped bool
	ownBuf  [kvs.MaxValueLen]byte
	ownLen  int
}

func (op *rmwOp) request() *Request { return op.req }
func (op *rmwOp) rounds() [2]*round { return [2]*round{&op.rnd, &op.bar.rnd} }

func (op *rmwOp) nextDeadline() time.Time {
	d := minTime(op.bar.deadline(), op.backoffAt)
	if op.prop.PendingRestart() {
		d = minTime(d, op.rnd.retryAt)
	}
	return d
}

// propose (re)starts the Paxos cycle against the current committed
// snapshot: recompute the RMW's value, allocate a ballot above every ballot
// seen, broadcast the propose.
func (op *rmwOp) propose(w *Worker) {
	nd := w.node
	// Local own-committed check before every (re-)proposal: a helper's
	// commit of our value reaches this replica too, and the registry entry
	// must be honoured BEFORE recomputing against a newer base. (resBuf
	// still describes the attempt whose value was committed.)
	if paxos.SessionCommitted(nd.Store, op.req.Key, op.id) {
		traceRMW(op.id, "local-already", op.prop.Slot)
		op.finish(w)
		return
	}
	snap := paxos.ReadCommitted(nd.Store, op.req.Key, w.scratch[:])
	own := op.computeOwn(snap.Val)
	ballot := paxos.AllocBallot(nd.Store, op.req.Key, nd.ID, op.prop.NextBallotFloor())
	op.prop.Start(snap.Slot, ballot, own)
	op.backoffAt = time.Time{}
	traceRMW(op.id, "propose", snap.Slot<<16|uint64(DecodeUint64(snap.Val)&0xffff))
	w.open(&op.rnd, op.prop.ProposeMsg(nd.ID, w.id))
}

// retry re-proposes after a ballot race — at the SAME slot with the SAME
// value, only the ballot rises. This must not re-read the local snapshot:
// if the slot moved on meanwhile, the re-propose acts as the quorum probe
// that tells us whether our value won the old slot (own-committed nack) or
// lost it (committed-nack -> restart); recomputing here would detach the
// reported result from the value that actually committed.
func (op *rmwOp) retry(w *Worker) {
	nd := w.node
	if paxos.SessionCommitted(nd.Store, op.req.Key, op.id) {
		traceRMW(op.id, "local-already", op.prop.Slot)
		op.finish(w)
		return
	}
	ballot := paxos.AllocBallot(nd.Store, op.req.Key, nd.ID, op.prop.NextBallotFloor())
	op.prop.Start(op.prop.Slot, ballot, op.ownBuf[:op.ownLen])
	op.backoffAt = time.Time{}
	traceRMW(op.id, "retry", op.prop.Slot)
	w.open(&op.rnd, op.prop.ProposeMsg(nd.ID, w.id))
}

// computeOwn derives the RMW's new value from the committed base, recording
// the client-visible result (the old value, plus CAS success).
func (op *rmwOp) computeOwn(base []byte) []byte {
	op.resLen = copy(op.resBuf[:], base)
	switch op.req.Code {
	case OpFAA:
		op.ownLen = copy(op.ownBuf[:], EncodeUint64(DecodeUint64(base)+op.req.Delta))
	default: // CAS
		if bytes.Equal(base, op.req.Expected) {
			op.swapped = true
			op.ownLen = copy(op.ownBuf[:], op.req.Val)
		} else {
			// Failed comparison: the RMW still linearizes by committing
			// the base unchanged (the strong variant always checks
			// remotely).
			op.swapped = false
			op.ownLen = copy(op.ownBuf[:], base)
		}
	}
	return op.ownBuf[:op.ownLen]
}

func (op *rmwOp) onTrackerUpdate(w *Worker) {
	if op.bar.barrierOnTracker(op.sess) {
		op.maybeAccept(w)
	}
}

// resolve re-runs the barrier's and the proposer's decisions (after a
// refit).
func (op *rmwOp) resolve(w *Worker) {
	if op.bar.barrierResolve(op.sess) {
		op.maybeAccept(w)
	}
	op.react(w, op.prop.Decide())
}

func (op *rmwOp) onMessage(w *Worker, m proto.Message) {
	switch m.Kind {
	case proto.KindProposeAck:
		act := op.prop.OnProposeAck(&m)
		op.sendLearns(w)
		op.react(w, act)
	case proto.KindAcceptAck:
		act := op.prop.OnAcceptAck(&m)
		op.sendLearns(w)
		op.react(w, act)
	case proto.KindCommitAck:
		op.react(w, op.prop.OnCommitAck(&m))
	case proto.KindSlowReleaseAck:
		op.bar.acks.Add(m.From)
		if op.bar.barrierResolve(op.sess) {
			op.maybeAccept(w)
		}
	}
}

func (op *rmwOp) react(w *Worker, act paxos.Action) {
	switch act {
	case paxos.ActAccept:
		op.pendingAccept = true
		op.rnd.close() // until the barrier lets the accept out
		op.maybeAccept(w)
	case paxos.ActCommit:
		// The commit carries the key's recent committed origins so replicas
		// that skip slots inherit the exactly-once filter entries.
		cm := op.prop.CommitMsg(w.node.ID, w.id)
		snap := paxos.ReadCommitted(w.node.Store, op.req.Key, w.scratch[:])
		cm.Origins = snap.Recent
		// The loopback applies the commit locally and folds the local
		// replica's ack.
		w.open(&op.rnd, cm)
	case paxos.ActDone:
		traceRMW(op.id, "done", uint64(boolToU64(op.prop.Helping()))<<32|op.prop.Slot)
		if op.prop.Helping() {
			// We completed a stranded foreign proposal; our own RMW now
			// runs at the next slot against the new committed base.
			op.propose(w)
			return
		}
		op.finish(w)
	case paxos.ActRestart:
		traceRMW(op.id, "restart", op.prop.Slot)
		op.applyCatchUp(w)
		op.propose(w)
	case paxos.ActAlreadyCommitted:
		traceRMW(op.id, "already", op.prop.Slot)
		// A helper already drove our value to commit: sync local state and
		// finish with the result computed when the value was created —
		// re-executing would double-apply the RMW.
		op.applyCatchUp(w)
		op.finish(w)
	case paxos.ActRetry:
		// Ballot race: back off briefly (staggered by op id) then
		// re-propose above the highest promise seen.
		stagger := time.Duration(op.id%7) * 37 * time.Microsecond
		op.backoffAt = w.now.Add(w.node.cfg.RetryInterval/8 + stagger)
	}
}

// maybeAccept broadcasts the accept round once both the propose quorum and
// the release barrier are in (the accept is the first value-bearing round).
func (op *rmwOp) maybeAccept(w *Worker) {
	if !op.pendingAccept || !op.bar.done {
		return
	}
	op.pendingAccept = false
	m := op.prop.AcceptMsg(w.node.ID, w.id)
	traceRMW(op.id, "accept", uint64(boolToU64(op.prop.Helping()))<<48|m.Slot<<16|DecodeUint64(m.Value)&0xffff)
	w.open(&op.rnd, m)
}

// applyCatchUp installs the committed state gleaned from nacks into the
// local replica (slot-1 holds the latest committed value).
func (op *rmwOp) applyCatchUp(w *Worker) {
	if slot, st, val, origin, ok := op.prop.CatchUp(); ok && slot > 0 {
		paxos.ApplyCommit(w.node.Store, op.req.Key, slot-1, st, val, origin,
			op.prop.CatchUpOrigins())
	}
}

// sendLearns ships the local committed state to replicas that nacked as
// behind, so they can rejoin the slot (fire-and-forget).
func (op *rmwOp) sendLearns(w *Worker) {
	if op.prop.Behind == 0 {
		return
	}
	snap := paxos.ReadCommitted(w.node.Store, op.req.Key, w.scratch[:])
	if snap.Slot > 0 {
		m := proto.Message{
			Kind: proto.KindPaxosLearn, From: w.node.ID, Worker: w.id,
			Key: op.req.Key, OpID: op.id, Slot: snap.Slot - 1,
			Stamp: snap.Stamp, Origin: snap.LastOrigin, Value: snap.Val,
			Origins: snap.Recent,
		}
		w.retransmit(m, op.prop.Behind)
	}
	op.prop.Behind = 0
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (op *rmwOp) finish(w *Worker) {
	traceRMW(op.id, "finish", DecodeUint64(op.resBuf[:op.resLen]))
	nd := w.node
	// The commit already applied the value locally with a quorum behind it;
	// bring the key in-epoch per the snapshot rule.
	nd.Store.AdvanceEpoch(op.req.Key, op.epochSnap)
	if op.prop.Delinquent {
		nd.Epoch.Bump()
		nd.epochBumps.Add(1)
		w.sendResetBit(op.id, op.prop.DelinqMask)
	}
	op.req.Out = op.req.outBuf[:copy(op.req.outBuf[:], op.resBuf[:op.resLen])]
	op.req.Swapped = op.swapped
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}

// onDeadline takes the RMW's timed decisions: the barrier timeout, the
// re-propose after a ballot-race backoff, and the forced restart of a
// quorum-backed restart that has waited one retransmission interval for a
// possible own-committed witness — availability wins then.
func (op *rmwOp) onDeadline(w *Worker, now time.Time) {
	if op.bar.barrierOnTimeout(w, op.sess, op.id, now) {
		op.maybeAccept(w)
	}
	switch {
	case !op.backoffAt.IsZero() && now.After(op.backoffAt):
		op.retry(w)
	case op.prop.PendingRestart() && !op.rnd.retryAt.IsZero() && now.After(op.rnd.retryAt):
		traceRMW(op.id, "forced-restart", op.prop.Slot)
		op.react(w, paxos.ActRestart)
	}
}
