package core

import (
	"time"

	"kite/internal/abd"
	"kite/internal/kvs"
	"kite/internal/membership"
	"kite/internal/proto"
)

// barrierState is the release-side barrier of §4.2, shared by releases and
// RMWs. It waits for every prior session write to be acked by all replicas;
// on timeout — provided every write reached a quorum — it publishes the
// DM-set via a slow-release round and proceeds once a quorum has seen it.
type barrierState struct {
	done      bool
	timeoutAt time.Time
	acks      membership.Tally // slow-release ackers
	rnd       round            // the slow-release broadcast, once sent
}

// barrierInit arms the barrier; returns immediately-done when the session's
// ledger is already clean.
func (b *barrierState) barrierInit(w *Worker, s *Session) {
	b.rnd.tally = &b.acks
	if s.tracker.AllAcked() {
		b.done = true
		return
	}
	b.timeoutAt = w.now.Add(w.node.cfg.ReleaseTimeout)
}

// slowSent reports whether the DM-set has been published.
func (b *barrierState) slowSent() bool { return b.rnd.msg.Kind == proto.KindSlowRelease }

// deadline is when barrierOnTimeout next has something to decide.
func (b *barrierState) deadline() time.Time {
	if b.done || b.slowSent() {
		return time.Time{}
	}
	return b.timeoutAt
}

// barrierOnTracker reacts to an ack completing a write; reports whether the
// barrier just completed.
func (b *barrierState) barrierOnTracker(s *Session) bool {
	if b.done || b.slowSent() || !s.tracker.AllAcked() {
		return false
	}
	b.done = true
	return true
}

// barrierOnTimeout runs the §4.2 slow-path release decision. Invariants
// enforced before the release may begin: (1) every prior write acked by at
// least a quorum, (2) the DM-set known to at least a quorum.
func (b *barrierState) barrierOnTimeout(w *Worker, s *Session, opID uint64, now time.Time) bool {
	if b.done || b.slowSent() || now.Before(b.timeoutAt) {
		return false
	}
	switch {
	case s.tracker.AllAcked():
		b.done = true
		return true
	case s.tracker.QuorumAcked():
		w.node.slowRels.Add(1)
		b.acks = membership.NewTally(w.node.n())
		w.open(&b.rnd, proto.Message{
			Kind: proto.KindSlowRelease, From: w.node.ID, Worker: w.id,
			OpID: opID, Bits: s.tracker.DMSet(),
		})
	default:
		// Some write is still below a quorum; progress hinges on the
		// quorum-liveness assumption, so keep waiting (retransmissions of
		// the ES writes are already running).
		b.timeoutAt = now.Add(w.node.cfg.RetryInterval)
	}
	return false
}

// barrierResolve completes a published barrier once a quorum has acked its
// DM-set (the tracked writes are then settled); reports whether the barrier
// just completed. The writes' broadcasts keep retransmitting: settling
// satisfies THIS group's barrier, but OpFlush — the cross-shard fence —
// still waits for their full replication (es.Tracker.FullyAcked), since the
// published DM-set is invisible to consumers synchronising in other groups.
func (b *barrierState) barrierResolve(s *Session) bool {
	if b.done || !b.slowSent() || !b.acks.Reached() {
		return false
	}
	s.tracker.Settle()
	b.done = true
	b.rnd.close()
	return true
}

// --- Release -----------------------------------------------------------------

// issueRelease implements the release write: the barrier above plus an ABD
// write. Per the §4.3 overlap optimisation, the ABD write's first round (the
// benign LLC read) is broadcast immediately, concurrently with waiting for
// acks; the value round starts only once both the LLC quorum and the barrier
// are in.
func (w *Worker) issueRelease(s *Session, r *Request) {
	nd := w.node
	op := &s.ops.rel
	*op = releaseOp{id: w.nextOpID(s), sess: s, req: r, epochSnap: nd.Epoch.Load()}
	n := copy(op.valBuf[:], r.Val)
	op.wr = *abd.NewWriteOp(r.Key, op.id, op.valBuf[:n], nd.n(), false)
	op.rnd.tally = op.wr.Tally()
	s.head, s.headID = op, op.id
	w.open(&op.rnd, op.wr.ReadTSMsg(nd.ID, w.id, proto.KindReadTS))
	op.bar.barrierInit(w, s)
	op.resolve(w)
}

type releaseOp struct {
	id        uint64
	sess      *Session
	req       *Request
	wr        abd.WriteOp
	rnd       round // the LLC round, then the value round
	bar       barrierState
	epochSnap uint64
	valBuf    [kvs.MaxValueLen]byte
}

func (op *releaseOp) request() *Request       { return op.req }
func (op *releaseOp) rounds() [2]*round       { return [2]*round{&op.rnd, &op.bar.rnd} }
func (op *releaseOp) nextDeadline() time.Time { return op.bar.deadline() }

func (op *releaseOp) onTrackerUpdate(w *Worker) {
	if op.bar.barrierOnTracker(op.sess) {
		op.resolve(w)
	}
}

func (op *releaseOp) onMessage(w *Worker, m proto.Message) {
	switch m.Kind {
	case proto.KindReadTSReply:
		op.wr.OnReadTS(&m)
	case proto.KindABDWriteAck:
		op.wr.OnWriteAck(&m)
	case proto.KindSlowReleaseAck:
		op.bar.acks.Add(m.From)
	default:
		return
	}
	op.resolve(w)
}

// resolve moves the release on from where its rounds stand: the value
// round starts once the LLC quorum and the barrier are both in, and the
// release completes with the value round's quorum.
func (op *releaseOp) resolve(w *Worker) {
	op.wr.Decide()
	op.bar.barrierResolve(op.sess)
	switch {
	case op.wr.Phase == abd.WriteDone:
		op.finish(w)
	case op.wr.Phase == abd.WriteValue && op.bar.done && op.rnd.msg.Kind != proto.KindABDWrite:
		nd := w.node
		st := nd.Store.WriteAtLeast(op.req.Key, op.wr.Val, op.wr.MaxTS, nd.ID, op.epochSnap)
		// The loopback ack covers the local replica (the value is already
		// applied, so the handler acks without re-applying).
		w.open(&op.rnd, op.wr.ValueMsg(st, nd.ID, w.id))
	case op.wr.Phase == abd.WriteValue && op.rnd.msg.Kind != proto.KindABDWrite:
		op.rnd.close() // LLC quorum in; the value round waits on the barrier
	}
}

func (op *releaseOp) finish(w *Worker) {
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}

func (op *releaseOp) onDeadline(w *Worker, now time.Time) {
	if op.bar.barrierOnTimeout(w, op.sess, op.id, now) {
		op.resolve(w)
	}
}

func minTime(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() || a.Before(b) {
		return a
	}
	return b
}
