package core

import (
	"kite/internal/abd"
	"kite/internal/es"
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

// issue starts executing request r at the head of session s. Fast-path
// relaxed ops complete inline; everything else installs a blocking head op.
func (w *Worker) issue(s *Session, r *Request) {
	switch r.Code {
	case OpRead:
		w.issueRead(s, r)
	case OpWrite:
		w.issueWrite(s, r)
	case OpRelease:
		w.issueRelease(s, r)
	case OpAcquire:
		w.issueAcquire(s, r)
	case OpFAA, OpCASWeak, OpCASStrong:
		w.issueRMW(s, r)
	case OpFlush:
		w.issueFlush(s, r)
	default:
		s.complete(r, ErrStopped)
	}
}

// --- Relaxed read ------------------------------------------------------------

// issueRead implements the relaxed read: in-epoch keys are served locally by
// Eventual Store (one seqlock view, no messages); out-of-epoch keys take the
// stripped slow path — a single quorum round that adopts the freshest value
// and brings the key back in-epoch (§4.2, §4.3).
func (w *Worker) issueRead(s *Session, r *Request) {
	nd := w.node
	epoch := nd.Epoch.Load()
	if !nd.cfg.DisableFastPath {
		val, _, keyEpoch, ok := nd.Store.View(r.Key, w.scratch[:])
		if (ok && keyEpoch == epoch) || (!ok && epoch == 0) {
			r.setOut(val)
			s.complete(r, nil)
			return
		}
	}
	nd.slowReads.Add(1)
	w.issueQuorumRead(s, r, proto.KindSlowRead)
}

// --- Relaxed write -----------------------------------------------------------

// issueWrite implements the relaxed write. Fast path: bump the key's LLC,
// apply locally, broadcast to the replicas, track acks in the session's
// ledger, and complete immediately — the release barrier, not the write,
// waits for acknowledgements. Slow path (out-of-epoch key): first read the
// key's LLC from a quorum so the new stamp dominates any write this node
// missed, then proceed as above; the write completes without waiting for
// value acks (§4.3).
func (w *Worker) issueWrite(s *Session, r *Request) {
	nd := w.node
	epoch := nd.Epoch.Load()
	if !nd.cfg.DisableFastPath {
		if st, ok := nd.Store.LocalWriteInEpoch(r.Key, r.Val, nd.ID, epoch); ok {
			w.trackWrite(s, r.Key, r.Val, st)
			s.complete(r, nil)
			return
		}
	}
	nd.slowWrites.Add(1)
	op := &s.ops.wr
	*op = slowWriteOp{id: w.nextOpID(s), sess: s, req: r, epochSnap: epoch}
	n := copy(op.valBuf[:], r.Val)
	op.wr = *abd.NewWriteOp(r.Key, op.id, op.valBuf[:n], nd.n(), true)
	op.rnd.tally = op.wr.Tally()
	s.head, s.headID = op, op.id
	w.open(&op.rnd, op.wr.ReadTSMsg(nd.ID, w.id, proto.KindSlowWriteTS))
}

// trackWrite ledgers an applied local write for all-ack gathering and
// broadcasts it to the replicas.
func (w *Worker) trackWrite(s *Session, key uint64, val []byte, st llc.Stamp) {
	if w.node.n() == 1 {
		// Sole replica: the local apply IS full replication. Tracking it
		// would ledger a write whose ack can never arrive, eventually
		// throttling the session against MaxPendingWrites forever.
		return
	}
	w.broadcastWrite(s, w.nextOpID(s), key, val, st)
}

// broadcastWrite ledgers write id of session s — the ledger entry is the
// write's one record: its broadcast, its resend timer and its acks — and
// broadcasts it to the remote members.
func (w *Worker) broadcastWrite(s *Session, id, key uint64, val []byte, st llc.Stamp) {
	e := s.tracker.Add(id, key, w.node.ID)
	e.Msg.Worker, e.Msg.Stamp, e.Msg.Value = w.id, st, e.Val[:copy(e.Val[:], val)]
	e.RetryAt = w.now.Add(w.node.cfg.RetryInterval)
	w.broadcastRemote(e.Msg)
}

// writesAcked reacts to writes leaving session s's ledger acked by every
// current member: each write's (key, stamp) may be validated cluster-wide
// for the local-acquire fast path, a throttled session runs again, and the
// head re-checks the barrier it may be waiting on.
func (w *Worker) writesAcked(s *Session, done ...*es.Write) {
	for _, e := range done {
		w.queueValidate(e.Msg.Key, e.Msg.Stamp)
	}
	if s.throttled {
		s.throttled = false
		w.enqueueRun(s)
	}
	if s.head != nil {
		s.head.onTrackerUpdate(w)
	}
}

// slowWriteOp is the out-of-epoch relaxed write: the LLC round of an ABD
// write (round 1 of abd.WriteOp, under its own message kind), after which
// it morphs into a tracked ES write and completes — the fire-and-forget
// value round of §4.3.
type slowWriteOp struct {
	id        uint64
	sess      *Session
	req       *Request
	wr        abd.WriteOp
	rnd       round
	epochSnap uint64
	valBuf    [kvs.MaxValueLen]byte
	untimed
}

func (op *slowWriteOp) request() *Request       { return op.req }
func (op *slowWriteOp) rounds() [2]*round       { return [2]*round{&op.rnd} }
func (op *slowWriteOp) onTrackerUpdate(*Worker) {}

func (op *slowWriteOp) onMessage(w *Worker, m proto.Message) {
	if m.Kind == proto.KindSlowWriteTSR && op.wr.OnReadTS(&m) {
		op.complete(w)
	}
}

func (op *slowWriteOp) resolve(w *Worker) {
	if op.wr.Decide() {
		op.complete(w)
	}
}

// complete runs once the LLC quorum is in: stamp the write above
// everything missed, apply locally, restore the key in-epoch, and
// broadcast. The write is tracked for the next release but completes now,
// without acks (§4.3).
func (op *slowWriteOp) complete(w *Worker) {
	nd := w.node
	st := nd.Store.WriteAtLeast(op.req.Key, op.wr.Val, op.wr.MaxTS, nd.ID, op.epochSnap)

	if nd.n() > 1 {
		// The write's ledger entry takes over this op's id (a sole replica
		// is fully replicated on apply, see trackWrite).
		w.broadcastWrite(op.sess, op.id, op.req.Key, op.wr.Val, st)
	}

	op.sess.complete(op.req, nil)
	op.sess.unblock()
}

// retransmit stages m for every remote node in mask (the local bit, if set,
// is ignored — the local replica always answered inline). The mask is
// intersected with the installed member set: an op that began under an
// older configuration must not keep retransmitting to a member that has
// since been removed.
func (w *Worker) retransmit(m proto.Message, mask uint16) {
	mask &= w.node.full()
	for dst := uint8(0); int(dst) < llc.MaxNodes; dst++ {
		if dst != w.node.ID && mask&(1<<dst) != 0 {
			w.stage(dst, m)
		}
	}
}
