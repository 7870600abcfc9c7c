package core

import (
	"kite/internal/abd"
	"kite/internal/es"
	"kite/internal/membership"
	"kite/internal/paxos"
	"kite/internal/proto"
)

// handleRequest runs the replica-side protocol handler for m against this
// node's store and barrier state, composing the Kite-specific delinquency
// piggyback (§4.2) onto the plain ABD/Paxos replies:
//
//   - acquire reads and Paxos proposes carry acquire semantics, so their
//     replies tell the requesting machine whether it is deemed delinquent
//     (moving the bit into the transient T state, tagged by the op id);
//   - slow-path relaxed reads deliberately do not (§4.3): they must not
//     consume the delinquency notification owed to a real acquire.
func (w *Worker) handleRequest(m *proto.Message) (rep proto.Message, ok bool) {
	nd := w.node
	if nd.rejoining.Load() && !servableWhileRejoining(m.Kind) {
		// Catching up after a restart: only write application is sound; see
		// servableWhileRejoining (internal/core/catchup.go) for the argument.
		return rep, false
	}
	switch m.Kind {
	case proto.KindESWrite:
		return es.HandleWrite(nd.Store, m, nd.ID), true

	case proto.KindESValidate:
		es.HandleValidate(nd.Store, m)
		return rep, false

	case proto.KindReadTS:
		// Round 1 of an ABD write: a release to this key is in flight, so
		// proactively drop it from the local-acquire fast path — the ABD
		// write's install will clear the bit anyway, but doing it at round 1
		// shrinks the window in which another replica's stale-but-valid copy
		// could miss the release earlier than necessary. (Correctness never
		// depends on this: validated values are relaxed writes, which no
		// synchronisation edge reads.)
		nd.Store.Invalidate(m.Key)
		return abd.HandleReadTS(nd.Store, m, nd.ID, proto.KindReadTSReply), true

	case proto.KindSlowWriteTS:
		return abd.HandleReadTS(nd.Store, m, nd.ID, proto.KindSlowWriteTSR), true

	case proto.KindABDWrite:
		return abd.HandleWrite(nd.Store, m, nd.ID), true

	case proto.KindAcqRead:
		rep = abd.HandleRead(nd.Store, m, nd.ID, w.scratch[:])
		if nd.Delinq.OnAcquire(m.From, m.OpID) {
			rep.Flags |= proto.FlagDelinquent
		}
		return rep, true

	case proto.KindSlowRead:
		return abd.HandleRead(nd.Store, m, nd.ID, w.scratch[:]), true

	case proto.KindSlowRelease:
		nd.Delinq.OnSlowRelease(m.Bits)
		return m.Reply(proto.KindSlowReleaseAck, nd.ID), true

	case proto.KindResetBit:
		nd.Delinq.OnResetBit(m.From, m.OpID)
		return rep, false

	case proto.KindPropose:
		// An RMW is in flight on this key; same proactive invalidation as
		// KindReadTS (the commit's install clears the bit regardless).
		nd.Store.Invalidate(m.Key)
		rep = paxos.HandlePropose(nd.Store, m, nd.ID, w.scratch[:])
		if nd.Delinq.OnAcquire(m.From, m.OpID) {
			rep.Flags |= proto.FlagDelinquent
		}
		return rep, true

	case proto.KindAccept:
		return paxos.HandleAccept(nd.Store, m, nd.ID, w.scratch[:]), true

	case proto.KindCommit:
		rep = paxos.HandleCommit(nd.Store, m, nd.ID)
		if m.Key == membership.ConfigKey {
			// A committed reconfiguration takes effect the moment its commit
			// reaches this replica — the usual install path.
			nd.maybeInstallEncoded(m.Value)
		}
		return rep, true

	case proto.KindPaxosLearn:
		paxos.HandleLearn(nd.Store, m)
		if m.Key == membership.ConfigKey {
			nd.maybeInstallEncoded(m.Value)
		}
		return rep, false
	}
	return rep, false
}
