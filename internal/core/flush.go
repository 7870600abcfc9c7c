package core

import (
	"kite/internal/proto"
)

// issueFlush implements the write-replication fence: the session blocks
// until every relaxed write it has issued so far is acknowledged by every
// replica, and then completes without touching any key.
//
// Unlike a release, a flush deliberately has no DM-set slow path — and it
// does not credit DM-sets already published by earlier slow releases of
// this session (tracker.FullyAcked, not AllAcked: settled writes still
// gate it). The slow-release escape hatch is sound in-group because the
// published DM-set is consumed by later acquires *of the same replica
// group*; a flush exists to order writes against synchronisation happening
// in a *different* group (the sharding layer's cross-shard release), where
// no acquire will ever read this group's DM-set. So the fence insists on
// full replication: the ES retransmission machinery keeps pushing the
// outstanding writes (settled ones included), and the fence completes the
// moment the ledger is truly clean. Availability note: a replica that
// stays unresponsive holds flushes (but not in-group releases) until it
// recovers; see DESIGN.md "Sharding".
func (w *Worker) issueFlush(s *Session, r *Request) {
	if s.tracker.FullyAcked() {
		s.complete(r, nil)
		return
	}
	op := &s.ops.flush
	*op = flushOp{sess: s, req: r}
	s.head, s.headID = op, 0 // waits on the ledger; no reply is its own
}

// flushOp is the blocking head op of an in-flight flush. It owns no
// protocol rounds of its own — the ledger's writes keep retransmitting — so
// it only listens for the ledger going clean.
type flushOp struct {
	untimed
	sess *Session
	req  *Request
}

func (op *flushOp) request() *Request                { return op.req }
func (op *flushOp) rounds() [2]*round                { return [2]*round{} }
func (op *flushOp) resolve(*Worker)                  {}
func (op *flushOp) onMessage(*Worker, proto.Message) {}

func (op *flushOp) onTrackerUpdate(w *Worker) {
	if !op.sess.tracker.FullyAcked() {
		return
	}
	op.sess.complete(op.req, nil)
	op.sess.unblock()
}
