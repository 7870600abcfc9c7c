package core

import (
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
	w.issueQuorumRead(s, r, proto.KindAcqRead)
}

// issueQuorumRead starts the ABD read behind an acquire (kind
// proto.KindAcqRead: replies carry the delinquency check, and a value not
// yet at a quorum is written back) or behind an out-of-epoch relaxed read
// (proto.KindSlowRead: the stripped §4.3 round, no write-back).
func (w *Worker) issueQuorumRead(s *Session, r *Request, kind proto.Kind) {
	nd := w.node
	op := &s.ops.rd
	*op = readOp{id: w.nextOpID(s), sess: s, req: r, epochSnap: nd.Epoch.Load()}
	op.rd = *abd.NewReadOp(r.Key, op.id, nd.n(), kind == proto.KindAcqRead)
	op.rnd.tally = op.rd.Tally()
	s.head, s.headID = op, op.id
	w.open(&op.rnd, op.rd.ReadMsg(nd.ID, w.id, kind))
}

// readOp is a blocking ABD read: an acquire that missed the local fast
// path, or a slow-path relaxed read.
type readOp struct {
	id        uint64
	sess      *Session
	req       *Request
	rd        abd.ReadOp
	rnd       round // the read round, then the write-back round
	epochSnap uint64
	untimed
}

func (op *readOp) request() *Request       { return op.req }
func (op *readOp) rounds() [2]*round       { return [2]*round{&op.rnd} }
func (op *readOp) onTrackerUpdate(*Worker) {}

func (op *readOp) onMessage(w *Worker, m proto.Message) {
	switch m.Kind {
	case proto.KindReadReply:
		op.react(w, op.rd.OnReadReply(&m))
	case proto.KindABDWriteAck:
		op.react(w, op.rd.OnWriteAck(&m))
	}
}

func (op *readOp) resolve(w *Worker) { op.react(w, op.rd.Decide()) }

func (op *readOp) react(w *Worker, act abd.ReadAction) {
	switch act {
	case abd.ReadWriteBackNow:
		// The freshest value is not yet at a quorum: write it back before
		// returning it (linearizability of acquires; §3.3).
		w.open(&op.rnd, op.rd.WriteBackMsg(w.node.ID, w.id))
	case abd.ReadComplete:
		op.finish(w)
	}
}

// finish installs the quorum-fresh value locally and completes the read.
// The key's epoch advances only to the machine epoch snapshotted at op
// start: if another session's acquire bumped the epoch mid-flight, this key
// still looks stale to it and will be re-fetched — the race §5.4's snapshot
// rule exists for.
func (op *readOp) finish(w *Worker) {
	nd := w.node
	nd.Store.ApplyAndAdvance(op.req.Key, op.rd.MaxVal, op.rd.MaxTS, op.epochSnap)
	if op.rd.Delinquent {
		// Transition to the slow path: bump the machine epoch first, then
		// tell the replicas that flagged us to reset our delinquency bit
		// (Lemma 5.6 order; targeted send — see Worker.sendResetBit). Only
		// acquire replies carry the flag.
		nd.Epoch.Bump()
		nd.epochBumps.Add(1)
		w.sendResetBit(op.id, op.rd.DelinqMask)
	}
	op.req.setOut(op.rd.MaxVal)
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}
