// Package abd implements multi-writer ABD (Lynch & Shvartsman's variant of
// Attiya-Bar-Noy-Dolev), the protocol Kite maps releases and acquires to
// (§3.3). ABD emulates linearizable reads and writes over an asynchronous
// message-passing system using only quorums — no leader, no failure
// detector — which is what lets Kite's synchronisation operations stay
// available as long as a majority of replicas is reachable.
//
//   - A write performs two broadcast rounds: a lightweight round that reads
//     the per-key LLCs of a quorum (so the writer picks a stamp above
//     everything completed), and a round that broadcasts the value with its
//     new stamp, completing on a quorum of acks.
//   - A read performs one broadcast round collecting (value, stamp) from a
//     quorum and returns the max-stamp value; if that value was not seen at
//     a quorum, it first performs a write-back round so that the read's
//     result is guaranteed visible to any subsequent read (the "reads must
//     write" rule that gives linearizability).
//
// The package provides the replica-side handlers and the originator-side op
// state machines (WriteOp, ReadOp). Stripped-down slow-path variants used by
// Kite's out-of-epoch relaxed accesses (§4.3) — a read without write-back
// and a write that completes without waiting for value-round acks — are
// expressed by the same state machines via options.
package abd

import (
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/proto"
)

// --- Replica-side handlers -------------------------------------------------

// HandleReadTS answers the lightweight LLC-read round of an ABD write (also
// used by slow-path relaxed writes with its own message kind).
func HandleReadTS(s *kvs.Store, m *proto.Message, self uint8, replyKind proto.Kind) proto.Message {
	rep := m.Reply(replyKind, self)
	if st, ok := s.ViewStamp(m.Key); ok {
		rep.Stamp = st
	}
	return rep
}

// HandleWrite answers the value round of an ABD write (and acquire
// write-backs): install the value if its stamp is newer, ack regardless.
// Acking stale stamps is required — a write-back of an already-superseded
// value must still complete its quorum.
func HandleWrite(s *kvs.Store, m *proto.Message, self uint8) proto.Message {
	s.Apply(m.Key, m.Value, m.Stamp)
	return m.Reply(proto.KindABDWriteAck, self)
}

// HandleRead answers a read round (acquires and slow-path relaxed reads):
// return the local (value, stamp). buf is scratch of at least
// kvs.MaxValueLen bytes; the reply's Value is copied out of it.
func HandleRead(s *kvs.Store, m *proto.Message, self uint8, buf []byte) proto.Message {
	rep := m.Reply(proto.KindReadReply, self)
	val, st, _, ok := s.View(m.Key, buf)
	if ok {
		rep.Stamp = st
		if len(val) > 0 {
			v := make([]byte, len(val))
			copy(v, val)
			rep.Value = v
		}
	}
	return rep
}

// --- Originator-side state machines ----------------------------------------

// WritePhase enumerates the write state machine's phases.
type WritePhase uint8

// Write phases.
const (
	WriteReadTS WritePhase = iota // waiting for quorum of LLC replies
	WriteValue                    // waiting for quorum of value acks
	WriteDone
)

// WriteOp drives one ABD write (a Kite release, or the LLC round of a
// slow-path relaxed write; an acquire write-back reuses the read op). The
// caller broadcasts the round messages; the op only folds replies and says
// what to do next.
type WriteOp struct {
	Key   uint64
	OpID  uint64
	Val   []byte
	Phase WritePhase
	MaxTS llc.Stamp // max stamp seen in round 1
	Stamp llc.Stamp // stamp assigned to the write (set entering round 2)
	round membership.Tally
	// FireAndForget makes the op complete as soon as round 2 is broadcast,
	// without waiting for acks — the §4.3 slow-path relaxed write.
	FireAndForget bool
}

// NewWriteOp creates a write op for an n-replica deployment.
func NewWriteOp(key, opID uint64, val []byte, n int, fireAndForget bool) *WriteOp {
	return &WriteOp{Key: key, OpID: opID, Val: val, round: membership.NewTally(n), FireAndForget: fireAndForget}
}

// Tally returns the current round's reply tally: its Missing set is the
// retransmission target, and a reconfiguration refits it before Decide.
func (w *WriteOp) Tally() *membership.Tally { return &w.round }

// ReadTSMsg builds the round-1 broadcast message.
func (w *WriteOp) ReadTSMsg(self, worker uint8, kind proto.Kind) proto.Message {
	return proto.Message{Kind: kind, From: self, Worker: worker, Key: w.Key, OpID: w.OpID}
}

// OnReadTS folds a round-1 reply. It returns true when the quorum is
// reached and the op advances to the value round.
func (w *WriteOp) OnReadTS(m *proto.Message) (startValueRound bool) {
	if w.Phase != WriteReadTS || !w.round.Add(m.From) {
		return false
	}
	w.MaxTS = llc.Max(w.MaxTS, m.Stamp)
	return w.Decide()
}

// ValueMsg builds the round-2 broadcast carrying the value stamped with st
// (the caller computes st via kvs.WriteAtLeast so the local stamp is also
// dominated).
func (w *WriteOp) ValueMsg(st llc.Stamp, self, worker uint8) proto.Message {
	w.Stamp = st
	return proto.Message{
		Kind: proto.KindABDWrite, From: self, Worker: worker,
		Key: w.Key, OpID: w.OpID, Stamp: st, Value: w.Val,
	}
}

// OnWriteAck folds a round-2 ack; true means the write completed.
func (w *WriteOp) OnWriteAck(m *proto.Message) (done bool) {
	if w.Phase != WriteValue || !w.round.Add(m.From) {
		return false
	}
	return w.Decide()
}

// Decide advances the op past its current round once a quorum has answered
// it — from the LLC round (MaxTS then holds its result) to the value round,
// or from the value round to WriteDone — and reports whether it advanced.
// The reply handlers run it after every fresh reply; a reconfiguration runs
// it after refitting the tally, so a round blocked solely on a removed
// member resolves exactly as if the missing reply had arrived.
func (w *WriteOp) Decide() bool {
	if w.Phase == WriteDone || !w.round.Reached() {
		return false
	}
	w.Phase++
	w.round.Reset()
	return true
}

// ReadPhase enumerates the read state machine's phases.
type ReadPhase uint8

// Read phases.
const (
	ReadRound     ReadPhase = iota // waiting for quorum of (value, stamp) replies
	ReadWriteBack                  // waiting for quorum of write-back acks
	ReadDone
)

// ReadOp drives one ABD read: a Kite acquire (NeedWriteBack=true) or a
// stripped slow-path relaxed read (NeedWriteBack=false; §4.3 — relaxed
// reads only need quorum intersection with completed writes, not
// linearizability, so the optional second round is skipped).
type ReadOp struct {
	Key   uint64
	OpID  uint64
	Phase ReadPhase
	// Result of round 1.
	MaxTS  llc.Stamp
	MaxVal []byte
	// Delinquent accumulates the you-are-delinquent flags piggybacked on
	// acquire replies (§4.2: the acquirer learns by querying a quorum).
	// DelinqMask records which counted repliers flagged: the reset-bit is
	// sent to exactly those — an uncounted replica may have moved our bit
	// to Trans for a *newer* release, and a reset reaching it would clear
	// suspicion this acquire's epoch bump does not answer for. Replicas it
	// never reaches self-heal: Trans still reads as suspected, so the next
	// counted acquire is flagged and carries a fresh reset.
	Delinquent bool
	DelinqMask uint16

	NeedWriteBack bool
	round         membership.Tally
	atMax         uint16 // round-1 repliers whose stamp equals MaxTS
}

// NewReadOp creates a read op for an n-replica deployment.
func NewReadOp(key, opID uint64, n int, needWriteBack bool) *ReadOp {
	return &ReadOp{Key: key, OpID: opID, round: membership.NewTally(n), NeedWriteBack: needWriteBack}
}

// Tally returns the current round's reply tally (see WriteOp.Tally).
func (r *ReadOp) Tally() *membership.Tally { return &r.round }

// ReadMsg builds the round-1 broadcast. Acquires use proto.KindAcqRead so
// replicas run the delinquency check; slow-path reads use proto.KindSlowRead.
func (r *ReadOp) ReadMsg(self, worker uint8, kind proto.Kind) proto.Message {
	return proto.Message{Kind: kind, From: self, Worker: worker, Key: r.Key, OpID: r.OpID}
}

// ReadAction tells the caller what to do after folding a reply.
type ReadAction uint8

// Actions returned by OnReadReply / OnWriteAck / Decide.
const (
	ReadWait         ReadAction = iota // keep collecting
	ReadComplete                       // op done; MaxVal/MaxTS hold the result
	ReadWriteBackNow                   // broadcast WriteBackMsg, collect acks
)

// OnReadReply folds a round-1 reply.
func (r *ReadOp) OnReadReply(m *proto.Message) ReadAction {
	if r.Phase != ReadRound || !r.round.Add(m.From) {
		return ReadWait
	}
	bit := uint16(1) << m.From
	if m.Flags&proto.FlagDelinquent != 0 {
		r.Delinquent = true
		r.DelinqMask |= bit
	}
	switch {
	case r.MaxTS.Less(m.Stamp):
		r.MaxTS = m.Stamp
		r.MaxVal = append(r.MaxVal[:0], m.Value...)
		r.atMax = bit
	case r.MaxTS.Equal(m.Stamp):
		r.atMax |= bit
	}
	return r.Decide()
}

// WriteBackMsg builds the second-round broadcast: the max value re-written
// with its *original* stamp (write-backs do not create a new version).
func (r *ReadOp) WriteBackMsg(self, worker uint8) proto.Message {
	return proto.Message{
		Kind: proto.KindABDWrite, From: self, Worker: worker,
		Key: r.Key, OpID: r.OpID, Stamp: r.MaxTS, Value: r.MaxVal,
	}
}

// OnWriteAck folds a write-back ack.
func (r *ReadOp) OnWriteAck(m *proto.Message) ReadAction {
	if r.Phase != ReadWriteBack || !r.round.Add(m.From) {
		return ReadWait
	}
	return r.Decide()
}

// Decide resolves the round in flight once a quorum has answered it (see
// WriteOp.Decide for who runs it). A quorate read round completes if the
// max-stamp value is already at a quorum of the repliers — it is then
// visible to any later quorum — and otherwise, for a linearizable read,
// writes it back first.
func (r *ReadOp) Decide() ReadAction {
	if r.Phase == ReadDone || !r.round.Reached() {
		return ReadWait
	}
	if r.Phase == ReadRound && r.NeedWriteBack && !r.round.Covers(r.atMax) && !r.MaxTS.IsZero() {
		r.Phase = ReadWriteBack
		r.round.Reset()
		return ReadWriteBackNow
	}
	r.Phase = ReadDone
	return ReadComplete
}
