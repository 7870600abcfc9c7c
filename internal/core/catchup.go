package core

import (
	"time"

	"kite/internal/catchup"
	"kite/internal/proto"
)

// catchupOpID is the reserved, node-unique operation id of the rejoin
// sweep. The session tag (high 32 bits) uses 0xffffff — incarnation 0xffff
// with session index 0xff — which no real session ever occupies (NewNode
// rejects incarnations >= 0xffff), so the id cannot collide with session
// ops.
func catchupOpID(node uint8) uint64 {
	return uint64(node)<<56 | uint64(0xffffff)<<32 | 1
}

// startCatchup installs the sweep driver on worker 0 and sends the first
// pull to every peer. Called once, at worker-loop entry, on a node that
// booted with Config.Rejoin.
func (w *Worker) startCatchup() {
	nd := w.node
	op := &catchupOp{
		id:      catchupOpID(nd.ID),
		sweep:   catchup.NewSweepMask(nd.ID, nd.full()),
		retryAt: w.now.Add(nd.cfg.RetryInterval),
	}
	if op.sweep.Done() {
		// Degenerate deployment (nothing to sweep); serve immediately.
		nd.finishCatchup()
		return
	}
	w.catchup = op
	for _, p := range op.sweep.Pending() {
		w.stage(p, catchup.PullMsg(nd.ID, w.id, op.id, op.sweep.Cursor(p)))
	}
}

// rebuild restarts the sweep against the currently installed member set —
// called when a configuration lands mid-sweep (the group reconfigured while
// this replica was catching up). Cursor state is discarded: chunks are
// idempotent and re-pulling is merely conservative, while continuing to
// count a removed peer toward coverage would not be.
func (op *catchupOp) rebuild(w *Worker) {
	nd := w.node
	op.sweep = catchup.NewSweepMask(nd.ID, nd.full())
	if op.sweep.Done() {
		w.catchup = nil
		nd.finishCatchup()
		return
	}
	op.retryAt = w.now.Add(nd.cfg.RetryInterval)
	for _, p := range op.sweep.Pending() {
		w.stage(p, catchup.PullMsg(nd.ID, w.id, op.id, op.sweep.Cursor(p)))
	}
}

// catchupOp drives the rejoin sweep: one cursor walk per peer, items merged
// as they arrive, the node released to serve once enough peers are covered.
// It belongs to the node rather than to a session: worker 0 keeps it in
// Worker.catchup, replies carrying catchupOpID route to onMessage, and the
// timer walk re-pulls stalled peers.
type catchupOp struct {
	id      uint64
	sweep   *catchup.Sweep
	retryAt time.Time
}

func (op *catchupOp) onMessage(w *Worker, m proto.Message) {
	nd := w.node
	switch m.Kind {
	case proto.KindCatchupItem:
		nd.catchupPulled.Add(1)
		if catchup.ApplyItem(nd.Store, &m) {
			nd.catchupApplied.Add(1)
		}
	case proto.KindCatchupEnd:
		// The peer's delinquency mask rides on every End frame: suspicion
		// published while this node was down must survive its amnesia, or a
		// machine's acquire could miss the notification a slow-release owed
		// it (the quorum-intersection argument of Lemma 5.6 assumes no
		// replica forgets its bits).
		nd.Delinq.Merge(m.Bits)
		if !op.sweep.OnEnd(m.From, m.Origin, m.Slot, m.Flags&proto.FlagCatchupDone != 0) {
			return // duplicate or stale retransmission
		}
		if op.sweep.Done() {
			w.catchup = nil
			nd.finishCatchup()
			return
		}
		// Progress resets the stall timer: the deadline is a stall
		// detector, not a pacer, and must not re-pull chunks whose reply
		// is simply slower than RetryInterval (that would double the
		// sweep's traffic on any network with chunk RTT > RetryInterval).
		op.retryAt = w.now.Add(nd.cfg.RetryInterval)
		if !op.sweep.PeerDone(m.From) {
			w.stage(m.From, catchup.PullMsg(nd.ID, w.id, op.id, op.sweep.Cursor(m.From)))
		}
	}
}

// onDeadline re-pulls every unfinished peer at its current cursor. Chunks
// are idempotent (items merge last-writer-wins; End frames echo the request
// cursor), so blunt retransmission is safe, and a peer that was down or
// itself catching up is simply asked again.
func (op *catchupOp) onDeadline(w *Worker, now time.Time) {
	for _, p := range op.sweep.Pending() {
		w.stage(p, catchup.PullMsg(w.node.ID, w.id, op.id, op.sweep.Cursor(p)))
	}
	op.retryAt = now.Add(w.node.cfg.RetryInterval)
}

// handleCatchupPull answers a rejoining peer's chunk request: a run of
// item messages plus the End frame carrying the continuation cursor and
// this node's delinquency mask. A memory-only node that is itself
// catching up must not answer — serving its partial store to another
// joiner would let two restarted replicas certify each other's amnesia —
// so it drops the pull and the joiner retries (against it and everyone
// else) until enough healthy peers respond. A WAL-restored rejoiner is
// different: its replayed store is complete up to its last durable
// record, the same guarantee a running replica's store gives at any
// instant, so it answers pulls even mid-sweep. That asymmetry is what
// lets a whole cluster restart from disk (the crash-all nemesis): every
// node is rejoining, but each can vouch for its own durable prefix, and
// the sweeps reconcile the per-node tails.
func (w *Worker) handleCatchupPull(m *proto.Message) {
	nd := w.node
	if (nd.rejoining.Load() && !nd.walRestored) || m.From == nd.ID {
		return
	}
	msgs, next, done := catchup.AppendChunk(
		nd.Store, m.Slot, nd.cfg.CatchupChunk, nd.ID, m.Worker, m.OpID, nil)
	for i := range msgs {
		w.stage(m.From, msgs[i])
	}
	w.stage(m.From, catchup.EndMsg(m, nd.ID, next, done, nd.Delinq.Mask()))
}

// servableWhileRejoining lists the replica-side message kinds a
// catching-up node still processes. Applying and acknowledging writes is
// sound — the ack truthfully means "applied locally", the node serves no
// local reads until the sweep completes, and the applied value survives it
// (merges are last-writer-wins) — and keeping the ES ack path alive is
// what lets a writer's ledger heal through a restart instead of pinning
// its flush fence on a DM-set forever. Read-type quorum rounds (acquire
// reads, LLC reads, Paxos proposes/accepts) are dropped: the node's
// forgotten state must not count toward anyone's quorum intersection, so
// peers assemble quorums from the caught-up majority and see this replica
// merely as slow.
func servableWhileRejoining(k proto.Kind) bool {
	switch k {
	case proto.KindESWrite, proto.KindABDWrite, proto.KindCommit,
		proto.KindPaxosLearn, proto.KindSlowRelease, proto.KindResetBit:
		return true
	}
	return false
}
