package core

import (
	"time"

	"kite/internal/abd"
	"kite/internal/barrier"
	"kite/internal/proto"
)

// issueAcquire implements the acquire read (§4.2): an ABD read whose replies
// piggyback the you-are-delinquent notification. The session blocks until
// the acquire completes; if any replica of the quorum deems this machine
// delinquent, the machine epoch-id is incremented *before* the reset-bit
// broadcast and before the session resumes, so every relaxed access after
// the acquire sees the new epoch and refreshes its key via the slow path.
//
// Before paying the quorum round, the acquire tries the Hermes-style local
// fast path (DESIGN.md "Local reads"): if the key carries the valid bit —
// its value is a relaxed write every current member has acked — and is
// in-epoch, and this machine is not marked delinquent in its own barrier
// vector, the value is served from the local store with no messages at
// all. Safety leans on what validation refuses to cover: releases, ABD
// write-backs and RMW commits are never validated (their installs clear
// the bit, and only relaxed full-acks set it), so a local hit can never
// return a release's value — the RC synchronises-with edge, and the
// delinquency notification that rides the acquire's quorum replies, are
// only ever owed by acquires that fall back.
func (w *Worker) issueAcquire(s *Session, r *Request) {
	nd := w.node
	if !nd.cfg.DisableFastPath && !nd.cfg.DisableLocalAcquires &&
		nd.Delinq.State(nd.ID) == barrier.Clear {
		if val, _, ok := nd.Store.ViewValid(r.Key, nd.Epoch.Load(), w.scratch[:]); ok && len(val) > 0 {
			// len(val) > 0: a validated empty value is indistinguishable
			// from "key never written" to an observer, so serving it
			// locally would claim initial state after sync writes may have
			// completed elsewhere; the quorum read disambiguates.
			nd.localAcqHits.Add(1)
			r.setOut(val)
			s.complete(r, nil)
			return
		}
	}
	nd.acqFallbacks.Add(1)
	op := &acquireOp{
		id: w.nextOpID(s), sess: s, req: r,
		epochSnap: nd.Epoch.Load(),
		rd:        abd.NewReadOp(r.Key, 0, nd.n(), true),
		retryAt:   w.now.Add(nd.cfg.RetryInterval),
	}
	op.rd.OpID = op.id
	s.head = op
	w.register(op.id, op)
	w.broadcastAll(op.rd.ReadMsg(nd.ID, w.id, proto.KindAcqRead))
}

type acquireOp struct {
	id        uint64
	sess      *Session
	req       *Request
	rd        *abd.ReadOp
	epochSnap uint64
	retryAt   time.Time
}

func (op *acquireOp) request() *Request       { return op.req }
func (op *acquireOp) nextDeadline() time.Time { return op.retryAt }
func (op *acquireOp) onTrackerUpdate(*Worker) {}

func (op *acquireOp) onMessage(w *Worker, m proto.Message) {
	var act abd.ReadAction
	switch m.Kind {
	case proto.KindReadReply:
		act = op.rd.OnReadReply(&m)
	case proto.KindABDWriteAck:
		act = op.rd.OnWriteAck(&m)
	default:
		return
	}
	switch act {
	case abd.ReadWriteBackNow:
		// The freshest value is not yet at a quorum: write it back before
		// returning it (linearizability of acquires; §3.3).
		w.broadcastAll(op.rd.WriteBackMsg(w.node.ID, w.id))
	case abd.ReadComplete:
		op.finish(w)
	}
}

// onConfigChange re-resolves the read (or write-back) round against a
// freshly installed member set (Worker.applyConfig).
func (op *acquireOp) onConfigChange(w *Worker) {
	switch op.rd.Refit(w.node.quorum(), w.node.full()) {
	case abd.ReadWriteBackNow:
		w.broadcastAll(op.rd.WriteBackMsg(w.node.ID, w.id))
	case abd.ReadComplete:
		op.finish(w)
	}
}

func (op *acquireOp) finish(w *Worker) {
	nd := w.node
	// Install the acquired value locally. The key's epoch advances only to
	// the machine epoch snapshotted at op start: if another session's
	// acquire bumped the epoch mid-flight, this key still looks stale to it
	// and will be re-fetched — the race §5.4's snapshot rule exists for.
	nd.Store.ApplyAndAdvance(op.req.Key, op.rd.MaxVal, op.rd.MaxTS, op.epochSnap)
	if op.rd.Delinquent {
		// Transition to the slow path: bump the machine epoch first, then
		// tell the replicas that flagged us to reset our delinquency bit
		// (Lemma 5.6 order; targeted send — see Worker.sendResetBit).
		nd.Epoch.Bump()
		nd.epochBumps.Add(1)
		w.sendResetBit(op.id, op.rd.DelinqMask)
	}
	op.req.setOut(op.rd.MaxVal)
	w.unregister(op.id)
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}

func (op *acquireOp) onDeadline(w *Worker, now time.Time) {
	var m proto.Message
	switch op.rd.Phase {
	case abd.ReadRound:
		m = op.rd.ReadMsg(w.node.ID, w.id, proto.KindAcqRead)
	case abd.ReadWriteBack:
		m = op.rd.WriteBackMsg(w.node.ID, w.id)
	default:
		return
	}
	w.retransmit(m, op.rd.Unseen(w.node.full()))
	op.retryAt = now.Add(w.node.cfg.RetryInterval)
}
