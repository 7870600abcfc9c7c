// Package paxos implements the per-key, leaderless Basic Paxos that Kite
// maps RMWs to (§3.4). Because RMWs to different keys commute, consensus
// runs at per-key granularity, uncovering request-level parallelism: threads
// synchronise only when touching the same key. Kite deliberately forgoes a
// stable leader — conceding an extra round trip per RMW — to keep the
// protocol decentralised and constantly available.
//
// Each key is a sequence of consensus instances ("slots"): slot k decides
// the k-th RMW committed on the key. A replica keeps, per key, the Paxos
// state for its current slot only (promised ballot, accepted ballot+value);
// deciding a slot applies the value to the KVS entry and advances the slot,
// resetting that state. Ballots are Lamport stamps drawn from the same
// per-key LLC space as ES and ABD writes, allocated under the key's bucket
// lock so they are unique per node and tie-broken by machine id across
// nodes.
//
// An RMW completes after three quorum round-trips: propose (which also
// carries Kite's acquire-side delinquency piggyback), accept (gated behind
// the RMW's release barrier, since it is the first round that exposes the
// new value), and commit (acked, so that a completed RMW is guaranteed
// visible in the KVS of a quorum — which is what lets ABD acquires observe
// committed RMWs).
package paxos

import (
	"unsafe"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

// OriginRing is how many recently committed RMW origins each key remembers
// for the catch-up payload carried on commits, learns and committed-nacks
// (it is a convergence aid; exactness comes from the per-session map below).
const OriginRing = 16

// SlotHist is how many applied slots each replica remembers the origin of,
// for authoritative who-won-slot-S answers in committed-nacks.
const SlotHist = 64

type slotRec struct{ slot, origin uint64 }

// State is the per-key consensus state, stored behind the key's entry via
// kvs meta so that locking the key also locks its Paxos structure (§6.2).
// All access happens inside kvs.Store.Mutate.
type State struct {
	Slot       uint64    // current undecided slot == number of committed RMWs
	Promised   llc.Stamp // highest ballot promised at Slot
	AccBallot  llc.Stamp // highest ballot accepted at Slot (zero if none)
	AccVal     []byte    // value accepted at Slot (nil if none)
	AccOrigin  uint64    // op id of the RMW that produced AccVal
	lastBallot llc.Stamp // ballot allocator watermark (node-local uniqueness)

	// LastOrigin is the origin of the most recent commit, echoed in
	// committed-nacks so catching-up proposers record it.
	LastOrigin uint64

	// origins remembers the op ids of the last OriginRing committed RMWs
	// on this key (the carried catch-up payload).
	origins [OriginRing]uint64
	oPos    int

	// slotHist remembers the origin of the last SlotHist slots this
	// replica applied directly, so committed-nacks can answer "who won
	// slot S" authoritatively.
	slotHist [SlotHist]slotRec

	// sessCommits is the exactly-once registry (the paper's committed
	// rmw-id bookkeeping): for every session that ever committed an RMW on
	// this key, the op id of its latest committed RMW. A session runs at
	// most one RMW at a time, so op X is committed iff its session's entry
	// is at least X — an exact test with no eviction window, unlike a
	// bounded ring. Memory is one word per (key, RMW-ing session).
	sessCommits map[uint64]uint64
}

// opSession extracts the session tag from an op id (node(8)|session(24)
// in the high 32 bits; see core's op id layout).
func opSession(op uint64) uint64 { return op >> 32 }

// opSeq extracts the per-session sequence number of an op id.
func opSeq(op uint64) uint32 { return uint32(op) }

// slotOriginOf returns the origin of slot if this replica applied it
// directly and it is still within the history window.
func (st *State) slotOriginOf(slot uint64) (uint64, bool) {
	r := st.slotHist[slot%SlotHist]
	if r.slot == slot+1 { // stored as slot+1 so the zero value means empty
		return r.origin, true
	}
	return 0, false
}

func (st *State) recordOrigin(origin uint64) {
	if origin == 0 {
		return
	}
	if st.sessCommits == nil {
		st.sessCommits = make(map[uint64]uint64, 4)
	}
	prev, ok := st.sessCommits[opSession(origin)]
	if ok && opSeq(prev) >= opSeq(origin) {
		return // already known (or superseded by the session's later RMW)
	}
	st.sessCommits[opSession(origin)] = origin
	st.origins[st.oPos] = origin
	st.oPos = (st.oPos + 1) % OriginRing
}

// recent returns up to k recently committed origins, newest first.
func (st *State) recent(k int) []uint64 {
	out := make([]uint64, 0, k)
	for i := 1; i <= OriginRing && len(out) < k; i++ {
		o := st.origins[(st.oPos-i+OriginRing)%OriginRing]
		if o != 0 {
			out = append(out, o)
		}
	}
	return out
}

// originCommitted reports whether the RMW identified by origin has already
// committed on this key. Strict equality against the session's latest
// committed RMW is exact for every op that can still be in flight: a session
// blocks on its single outstanding RMW, so while op X is unresolved no later
// op of its session can possibly be in the registry — the entry is either X
// (committed) or an older, long-finished op (not committed). Replies about
// already-finished ops route to no pending op and are harmless either way.
func (st *State) originCommitted(origin uint64) bool {
	if origin == 0 || st.sessCommits == nil {
		return false
	}
	return st.sessCommits[opSession(origin)] == origin
}

// stateOf returns the entry's Paxos state, allocating it lazily.
func stateOf(e *kvs.Entry) *State {
	if st, ok := e.Meta().(*State); ok {
		return st
	}
	st := &State{}
	e.SetMeta(st)
	return st
}

// Snapshot is a consistent view of a key's committed state, used by
// proposers to compute their RMW against the latest committed value.
type Snapshot struct {
	Slot       uint64
	Stamp      llc.Stamp
	Val        []byte
	LastOrigin uint64   // origin of the commit that produced Val (if any)
	Recent     []uint64 // recently committed origins, newest first
}

// ReadCommitted returns the key's committed snapshot: the current slot and
// the KVS entry's (value, stamp). buf is scratch of >= kvs.MaxValueLen.
func ReadCommitted(s *kvs.Store, key uint64, buf []byte) Snapshot {
	var snap Snapshot
	s.Mutate(key, func(e *kvs.Entry) {
		st := stateOf(e)
		snap.Slot = st.Slot
		snap.Stamp = e.Stamp()
		snap.LastOrigin = st.LastOrigin
		snap.Recent = st.recent(proto.MaxOrigins)
		v := e.ValueInto(buf)
		snap.Val = append([]byte(nil), v...)
	})
	return snap
}

// SessionCommitted reports whether the RMW identified by opID is already in
// key's local exactly-once registry — the cheapest own-committed witness
// (every commit is broadcast to all replicas, including the proposer's own).
func SessionCommitted(s *kvs.Store, key, opID uint64) (committed bool) {
	s.Mutate(key, func(e *kvs.Entry) {
		committed = stateOf(e).originCommitted(opID)
	})
	return committed
}

// ExportMeta extracts the committed consensus state from a KVS entry's
// meta for the catch-up wire format: the current slot, the origin of the
// latest commit, and the recently committed origins (newest first). ok is
// false when the key has no consensus history. Callers hold the entry's
// bucket lock (kvs.Store.SnapshotBucket), which is the meta-access contract.
func ExportMeta(meta any) (slot, lastOrigin uint64, recent []uint64, ok bool) {
	st, isState := meta.(*State)
	if !isState || st.Slot == 0 {
		return 0, 0, nil, false
	}
	return st.Slot, st.LastOrigin, st.recent(proto.MaxOrigins), true
}

// ImportCommitted merges a peer's exported committed state for key into the
// local replica, as a rejoining node does during its catch-up sweep. The
// slot only moves forward; the carried origins enter the exactly-once
// registry so RMWs committed while this replica was down are never
// re-executed on its behalf. The committed VALUE travels separately as the
// entry's (value, stamp) — last-writer-wins by LLC via Store.Apply — so
// this import never overwrites a newer write with an older committed value.
// Accepted-but-uncommitted state is deliberately NOT transferred over the
// wire: peers only vouch for committed state. A restarted acceptor's own
// promises and accepts are restored from its write-ahead log instead
// (ReplayPromise/ReplayAccept; see DESIGN.md "Recovery").
func ImportCommitted(s *kvs.Store, key, slot, lastOrigin uint64, recent []uint64) {
	s.Mutate(key, func(e *kvs.Entry) {
		st := stateOf(e)
		s.Record(kvs.Event{Kind: kvs.EvImport, Key: key, Slot: slot, Origin: lastOrigin, Origins: recent})
		for i := len(recent) - 1; i >= 0; i-- {
			st.recordOrigin(recent[i])
		}
		st.recordOrigin(lastOrigin)
		if slot > st.Slot {
			st.Slot = slot
			st.Promised = llc.Zero
			st.AccBallot = llc.Zero
			st.AccVal = nil
			st.AccOrigin = 0
			st.LastOrigin = lastOrigin
		}
	})
}

// AllocBallot allocates a fresh ballot for key, strictly greater than the
// entry's stamp, the allocator watermark, and atLeast. Allocation happens
// under the bucket lock, so concurrent workers of one node never collide.
func AllocBallot(s *kvs.Store, key uint64, mid uint8, atLeast llc.Stamp) (b llc.Stamp) {
	s.Mutate(key, func(e *kvs.Entry) {
		st := stateOf(e)
		b = llc.Max(llc.Max(st.lastBallot, e.Stamp()), atLeast).Next(mid)
		st.lastBallot = b
	})
	return b
}

// --- Replica-side handlers --------------------------------------------------

// HandlePropose processes a propose (phase-1) message. Reply encoding:
//
//   - ok: Flags has no FlagNack; FlagHasAccepted with (Stamp, Value) set if
//     a value is already accepted at this slot (the proposer must help it).
//   - proposer stale (m.Slot < our slot): FlagNack|FlagCommitted with
//     Slot/Stamp/Value carrying our committed state for catch-up.
//   - replica behind (m.Slot > our slot): FlagNack with Slot = our slot; the
//     proposer responds with a PaxosLearn.
//   - ballot too low: FlagNack with Slot = m.Slot and Stamp = promised.
func HandlePropose(s *kvs.Store, m *proto.Message, self uint8, buf []byte) proto.Message {
	rep := m.Reply(proto.KindProposeAck, self)
	rep.Bits = m.Bits // echo the attempt tag
	s.Mutate(m.Key, func(e *kvs.Entry) {
		st := stateOf(e)
		switch {
		case st.originCommitted(m.OpID):
			// This RMW already committed (a helper drove it); the proposer
			// must finish, not re-execute.
			rep.Flags |= proto.FlagNack | proto.FlagOwnCommitted | proto.FlagCommitted
			rep.Slot = st.Slot
			rep.Stamp = e.Stamp()
			rep.Origin = st.LastOrigin
			rep.Origins = st.recent(proto.MaxOrigins)
			rep.Value = append([]byte(nil), e.ValueInto(buf)...)
		case m.Slot < st.Slot:
			rep.Flags |= proto.FlagNack | proto.FlagCommitted
			rep.Slot = st.Slot
			rep.Stamp = e.Stamp()
			rep.Origin = st.LastOrigin
			rep.Origins = st.recent(proto.MaxOrigins)
			rep.Value = append([]byte(nil), e.ValueInto(buf)...)
			if o, ok := st.slotOriginOf(m.Slot); ok {
				// Authoritative answer for the requester's slot (separate
				// field: rep.Origin must stay the catch-up payload's origin).
				rep.Flags |= proto.FlagSlotKnown
				rep.SlotOrigin = o
			}
		case m.Slot > st.Slot:
			rep.Flags |= proto.FlagNack
			rep.Slot = st.Slot
		case st.Promised.Less(m.Stamp):
			st.Promised = m.Stamp
			// The promise must be durable before the ack leaves: a
			// restarted acceptor that forgot it could accept a lower
			// ballot it promised away.
			s.Record(kvs.Event{Kind: kvs.EvPromise, Key: m.Key, Slot: m.Slot, Stamp: m.Stamp})
			rep.Slot = m.Slot
			if !st.AccBallot.IsZero() {
				rep.Flags |= proto.FlagHasAccepted
				rep.Stamp = st.AccBallot
				rep.Origin = st.AccOrigin
				rep.Value = append([]byte(nil), st.AccVal...)
			}
		default:
			rep.Flags |= proto.FlagNack
			rep.Slot = m.Slot
			rep.Stamp = st.Promised
		}
	})
	return rep
}

// HandleAccept processes an accept (phase-2) message. A replica accepts iff
// the slot matches and the ballot is at least its promise.
func HandleAccept(s *kvs.Store, m *proto.Message, self uint8, buf []byte) proto.Message {
	rep := m.Reply(proto.KindAcceptAck, self)
	rep.Bits = m.Bits // echo the attempt tag
	s.Mutate(m.Key, func(e *kvs.Entry) {
		st := stateOf(e)
		switch {
		case st.originCommitted(m.Origin):
			rep.Flags |= proto.FlagNack | proto.FlagOwnCommitted | proto.FlagCommitted
			rep.Slot = st.Slot
			rep.Stamp = e.Stamp()
			rep.Origin = st.LastOrigin
			rep.Origins = st.recent(proto.MaxOrigins)
			rep.Value = append([]byte(nil), e.ValueInto(buf)...)
		case m.Slot < st.Slot:
			rep.Flags |= proto.FlagNack | proto.FlagCommitted
			rep.Slot = st.Slot
			rep.Stamp = e.Stamp()
			rep.Origin = st.LastOrigin
			rep.Origins = st.recent(proto.MaxOrigins)
			rep.Value = append([]byte(nil), e.ValueInto(buf)...)
			if o, ok := st.slotOriginOf(m.Slot); ok {
				// Authoritative answer for the requester's slot (separate
				// field: rep.Origin must stay the catch-up payload's origin).
				rep.Flags |= proto.FlagSlotKnown
				rep.SlotOrigin = o
			}
		case m.Slot > st.Slot:
			rep.Flags |= proto.FlagNack
			rep.Slot = st.Slot
		case !m.Stamp.Less(st.Promised):
			st.Promised = m.Stamp
			st.AccBallot = m.Stamp
			st.AccVal = append(st.AccVal[:0], m.Value...)
			st.AccOrigin = m.Origin
			// The accept is the record that closes the documented
			// accepted-but-uncommitted double-failure window: a value a
			// quorum accepted survives even if every acceptor restarts.
			s.Record(kvs.Event{Kind: kvs.EvAccept, Key: m.Key, Slot: m.Slot, Stamp: m.Stamp, Origin: m.Origin, Value: m.Value})
			rep.Slot = m.Slot
		default:
			rep.Flags |= proto.FlagNack
			rep.Slot = m.Slot
			rep.Stamp = st.Promised
		}
	})
	return rep
}

// DebugCommitHook, when non-nil, observes every slot advancement on every
// replica (test instrumentation; called under the key's bucket lock).
var DebugCommitHook func(storeID uintptr, key, slot uint64, ballot llc.Stamp, origin uint64, val []byte)

// ApplyCommit applies a decided (slot, ballot, value) to the local replica:
// the value lands in the KVS entry (making it visible to ES reads and ABD
// rounds), the slot advances past it, and the per-slot promise state resets.
// Commits are idempotent and tolerate skipped slots (a later commit carries
// a later committed value, which supersedes anything missed). Reports
// whether the commit advanced the slot.
func ApplyCommit(s *kvs.Store, key uint64, slot uint64, ballot llc.Stamp, val []byte, origin uint64, extra []uint64) (advanced bool) {
	s.Mutate(key, func(e *kvs.Entry) {
		st := stateOf(e)
		// Recorded unconditionally: even a stale duplicate mutates the
		// exactly-once registry, and a replica that replays its log must
		// re-learn those origins or it will deny committed RMWs.
		s.Record(kvs.Event{Kind: kvs.EvCommit, Key: key, Slot: slot, Stamp: ballot, Origin: origin, Value: val, Origins: extra})
		if slot < st.Slot {
			// Duplicate commit of an already-applied slot (e.g. a helper
			// re-committing with a higher ballot): the value is identical,
			// but raising the stamp converges the replicas' LLCs.
			if slot == st.Slot-1 && e.Stamp().Less(ballot) {
				e.SetStamp(ballot)
			}
			// CRITICAL for exactly-once: commits from different workers can
			// arrive out of order, so this replica may have applied a later
			// slot first and now sees the earlier commit as stale. The value
			// is rightly superseded — but this commit's origin (and its
			// carried origins) must still enter the registry, or the replica
			// will later deny that the RMW committed and its proposer will
			// re-execute it.
			for i := len(extra) - 1; i >= 0; i-- {
				st.recordOrigin(extra[i])
			}
			st.recordOrigin(origin)
			return
		}
		// Slot order — not stamp order — is the authority for committed
		// values: the same slot can be committed under different ballots
		// (helper races), so a later slot's ballot may be numerically
		// below a stale stamp; its value must still land.
		e.SetValue(val, llc.Max(e.Stamp(), ballot))
		st.Slot = slot + 1
		st.Promised = llc.Zero
		st.AccBallot = llc.Zero
		st.AccVal = nil
		st.AccOrigin = 0
		// Record the carried recent origins first (oldest last in the
		// slice, so insert in reverse), then the commit's own origin: a
		// replica skipping slots inherits the skipped RMW ids.
		for i := len(extra) - 1; i >= 0; i-- {
			st.recordOrigin(extra[i])
		}
		st.recordOrigin(origin)
		st.LastOrigin = origin
		st.slotHist[slot%SlotHist] = slotRec{slot: slot + 1, origin: origin}
		advanced = true
		if DebugCommitHook != nil {
			DebugCommitHook(reflectStoreID(s), key, slot, ballot, origin, append([]byte(nil), val...))
		}
	})
	return advanced
}

func reflectStoreID(s *kvs.Store) uintptr {
	return uintptr(unsafe.Pointer(s))
}

// HandleCommit processes a commit message and acks it. Kite completes an
// RMW only after a quorum of commit acks, so that a completed RMW is in the
// KVS of a quorum and every subsequent acquire's read round must intersect
// it (RCLin's real-time guarantee for RMWs).
func HandleCommit(s *kvs.Store, m *proto.Message, self uint8) proto.Message {
	ApplyCommit(s, m.Key, m.Slot, m.Stamp, m.Value, m.Origin, m.Origins)
	rep := m.Reply(proto.KindCommitAck, self)
	rep.Bits = m.Bits // echo the attempt tag
	return rep
}

// HandleLearn processes a fire-and-forget catch-up message (sent to replicas
// discovered to be behind). No reply.
func HandleLearn(s *kvs.Store, m *proto.Message) {
	ApplyCommit(s, m.Key, m.Slot, m.Stamp, m.Value, m.Origin, m.Origins)
}
