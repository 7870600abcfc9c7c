package core

import (
	"time"

	"kite/internal/abd"
	"kite/internal/kvs"
	"kite/internal/proto"
)

// barrierState is the release-side barrier of §4.2, shared by releases and
// RMWs. It waits for every prior session write to be acked by all replicas;
// on timeout — provided every write reached a quorum — it publishes the
// DM-set via a slow-release broadcast and proceeds once a quorum has seen it.
type barrierState struct {
	done      bool
	timeoutAt time.Time
	slowSent  bool
	slowAcks  uint16
	dmSet     uint16
}

// barrierInit arms the barrier; returns immediately-done when the session's
// ledger is already clean.
func (b *barrierState) barrierInit(w *Worker, s *Session) {
	if s.tracker.AllAcked() {
		b.done = true
		return
	}
	b.timeoutAt = w.now.Add(w.node.cfg.ReleaseTimeout)
}

// barrierOnTracker reacts to an ack completing a write; reports whether the
// barrier just completed.
func (b *barrierState) barrierOnTracker(s *Session) bool {
	if b.done || b.slowSent || !s.tracker.AllAcked() {
		return false
	}
	b.done = true
	return true
}

// barrierOnTimeout runs the §4.2 slow-path release decision. Invariants
// enforced before the release may begin: (1) every prior write acked by at
// least a quorum, (2) the DM-set known to at least a quorum.
func (b *barrierState) barrierOnTimeout(w *Worker, s *Session, opID uint64, now time.Time) bool {
	if b.done || b.slowSent || now.Before(b.timeoutAt) {
		return false
	}
	switch {
	case s.tracker.AllAcked():
		b.done = true
		return true
	case s.tracker.QuorumAcked():
		b.dmSet = s.tracker.DMSet()
		b.slowSent = true
		w.node.slowRels.Add(1)
		w.broadcastAll(proto.Message{
			Kind: proto.KindSlowRelease, From: w.node.ID, Worker: w.id,
			OpID: opID, Bits: b.dmSet,
		})
	default:
		// Some write is still below a quorum; progress hinges on the
		// quorum-liveness assumption, so keep waiting (retransmissions of
		// the ES writes are already running).
		b.timeoutAt = now.Add(w.node.cfg.RetryInterval)
	}
	return false
}

// barrierOnSlowAck folds a slow-release ack; at quorum the tracked writes
// are settled (covered by the published DM-set) and the barrier completes.
// The writes' broadcasts keep retransmitting: settling satisfies THIS
// group's barrier, but OpFlush — the cross-shard fence — still waits for
// their full replication (es.Tracker.FullyAcked), since the published
// DM-set is invisible to consumers synchronising in other groups.
func (b *barrierState) barrierOnSlowAck(w *Worker, s *Session, from uint8) bool {
	if !b.slowSent || b.done {
		return false
	}
	b.slowAcks |= 1 << from
	if popcount16(b.slowAcks) < w.node.quorum() {
		return false
	}
	s.tracker.Settle()
	b.done = true
	return true
}

// barrierOnConfigChange re-resolves a pending slow-release quorum against a
// freshly installed member set: removed members' acks stop counting, and a
// barrier blocked solely on a removed member's ack completes.
func (b *barrierState) barrierOnConfigChange(w *Worker, s *Session) bool {
	if !b.slowSent || b.done {
		return false
	}
	b.slowAcks &= w.node.full()
	if popcount16(b.slowAcks) < w.node.quorum() {
		return false
	}
	s.tracker.Settle()
	b.done = true
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
	op := &releaseOp{
		id: w.nextOpID(s), sess: s, req: r,
		epochSnap: nd.Epoch.Load(),
		retryAt:   w.now.Add(nd.cfg.RetryInterval),
	}
	n := copy(op.valBuf[:], r.Val)
	op.wr = abd.NewWriteOp(r.Key, op.id, op.valBuf[:n], nd.n(), false)
	s.head = op
	w.register(op.id, op)
	w.broadcastAll(op.wr.ReadTSMsg(nd.ID, w.id, proto.KindReadTS))
	op.bar.barrierInit(w, s)
	op.maybeStartValue(w)
}

type releaseOp struct {
	id        uint64
	sess      *Session
	req       *Request
	wr        *abd.WriteOp
	bar       barrierState
	epochSnap uint64
	tsQuorum  bool
	started   bool // value round broadcast
	valBuf    [kvs.MaxValueLen]byte
	retryAt   time.Time
}

func (op *releaseOp) request() *Request       { return op.req }
func (op *releaseOp) nextDeadline() time.Time { return minTime(op.retryAt, op.bar.timeoutAt) }

func (op *releaseOp) onTrackerUpdate(w *Worker) {
	if op.bar.barrierOnTracker(op.sess) {
		op.maybeStartValue(w)
	}
}

// onConfigChange re-resolves the ABD rounds and the slow-release barrier
// against a freshly installed member set (Worker.applyConfig) — a round
// blocked solely on a removed member completes instead of retransmitting
// forever at a node whose frames the epoch check rejects.
func (op *releaseOp) onConfigChange(w *Worker) {
	v := w.node.View()
	if op.wr.Refit(v.Quorum(), v.Mask()) {
		if op.started {
			op.finish(w)
			return
		}
		op.tsQuorum = true
	}
	op.bar.barrierOnConfigChange(w, op.sess)
	op.maybeStartValue(w)
}

func (op *releaseOp) onMessage(w *Worker, m proto.Message) {
	switch m.Kind {
	case proto.KindReadTSReply:
		if op.wr.OnReadTS(&m) {
			op.tsQuorum = true
			op.maybeStartValue(w)
		}
	case proto.KindABDWriteAck:
		if op.started && op.wr.OnWriteAck(&m) {
			op.finish(w)
		}
	case proto.KindSlowReleaseAck:
		if op.bar.barrierOnSlowAck(w, op.sess, m.From) {
			op.maybeStartValue(w)
		}
	}
}

// maybeStartValue begins the ABD value round once the LLC quorum and the
// barrier are both satisfied.
func (op *releaseOp) maybeStartValue(w *Worker) {
	if !op.tsQuorum || !op.bar.done || op.started {
		return
	}
	op.started = true
	nd := w.node
	st := nd.Store.WriteAtLeast(op.req.Key, op.wr.Val, op.wr.MaxTS, nd.ID, op.epochSnap)
	// broadcastAll: the loopback ack covers the local replica (the value is
	// already applied, so the handler acks without re-applying).
	w.broadcastAll(op.wr.ValueMsg(st, nd.ID, w.id))
}

func (op *releaseOp) finish(w *Worker) {
	w.unregister(op.id)
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}

func (op *releaseOp) onDeadline(w *Worker, now time.Time) {
	if op.bar.barrierOnTimeout(w, op.sess, op.id, now) {
		op.maybeStartValue(w)
	}
	if now.After(op.retryAt) {
		if op.bar.slowSent && !op.bar.done {
			w.retransmit(proto.Message{
				Kind: proto.KindSlowRelease, From: w.node.ID, Worker: w.id,
				OpID: op.id, Bits: op.bar.dmSet,
			}, w.node.full()&^op.bar.slowAcks)
		}
		switch {
		case op.started:
			w.retransmit(op.wr.ValueMsg(op.wr.Stamp, w.node.ID, w.id), op.wr.Unseen(w.node.full()))
		case !op.tsQuorum:
			w.retransmit(op.wr.ReadTSMsg(w.node.ID, w.id, proto.KindReadTS), op.wr.Unseen(w.node.full()))
		}
		op.retryAt = now.Add(w.node.cfg.RetryInterval)
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
