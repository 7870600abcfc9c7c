package es

import (
	"math/bits"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

// HandleWrite processes an incoming ES write at a replica: apply the value
// if its stamp is newer than the local one, then ack. The ack is sent only
// after the local store reflects the write (or a newer one), which is what
// makes an ack mean "a local read here can no longer miss this write" — the
// property the fast path's all-ack rule relies on.
func HandleWrite(s *kvs.Store, m *proto.Message, self uint8) proto.Message {
	s.Apply(m.Key, m.Value, m.Stamp)
	return m.Reply(proto.KindESAck, self)
}

// HandleValidate processes a validate broadcast: the origin of one or more
// relaxed writes has collected acks from EVERY current member, so each
// (key, stamp) pair may be marked locally readable — Hermes-style
// validation. The store only sets the bit if the named stamp is still the
// installed one; a newer write has already re-invalidated the key and its
// own full-ack will bring its own validate. No reply: validates are
// fire-and-forget, and losing one merely leaves the key on the ABD
// fallback path.
func HandleValidate(s *kvs.Store, m *proto.Message) {
	for i := 0; i+1 < len(m.Origins); i += 2 {
		s.Validate(m.Origins[i], llc.Unpack(m.Origins[i+1]))
	}
}

// AppendValidate packs a fully-acked write's (key, stamp) pair onto a
// pending validate batch (the wire encoding HandleValidate consumes).
func AppendValidate(batch []uint64, key uint64, st llc.Stamp) []uint64 {
	return append(batch, key, st.Pack())
}

// PendingWrite tracks one relaxed write awaiting acknowledgements.
type PendingWrite struct {
	OpID  uint64
	Key   uint64
	Acked uint16 // bitmask of nodes that acked (origin included)
}

// Tracker is a session's ledger of writes that have not yet been acked by
// every replica. A release may begin only once the pending set is clean —
// or once the slow-release protocol has published its DM-set, which moves
// the writes to the settled set: covered for the purposes of *this group's*
// release barrier (later acquires here consult the DM-set), but still short
// of full replication. The distinction matters to OpFlush, the cross-shard
// fence: a DM-set is invisible to consumers synchronising in a different
// replica group, so the fence waits for pending AND settled to drain
// (FullyAcked), while releases keep the paper's availability story
// (AllAcked, pending only).
//
// Entries are stored by value and both maps keep their buckets across
// deletes, Settle and Refit, so a tracker at its high-water mark ledgers
// writes without allocating.
type Tracker struct {
	pending map[uint64]PendingWrite
	// settled holds writes whose DM-set a slow release has published; their
	// broadcasts keep retransmitting until every replica acks. Bounded by
	// write throughput during a replica outage (entries drain in one burst
	// when the straggler wakes and acks).
	settled map[uint64]PendingWrite
	full    uint16 // all-nodes bitmask
	quorum  int
}

// NewTracker creates a tracker for a deployment of n nodes (ids 0..n-1).
func NewTracker(n int) *Tracker {
	return NewTrackerMask(uint16(1<<n) - 1)
}

// NewTrackerMask creates a tracker for the member set given as a node-id
// bitmask — the membership-aware constructor (member ids need not be
// contiguous after a replica removal).
func NewTrackerMask(full uint16) *Tracker {
	return &Tracker{
		pending: make(map[uint64]PendingWrite, 16),
		settled: make(map[uint64]PendingWrite),
		full:    full,
		quorum:  bits.OnesCount16(full)/2 + 1,
	}
}

// Refit retargets the tracker at a new member set after a configuration
// epoch install. Writes already acked by every CURRENT member complete
// immediately (their ids are returned so the owner can retire the
// retransmitting ops — the case that matters is a removed replica whose
// missing ack would otherwise gate releases and flushes forever); writes
// still short of the new full set keep retransmitting, now also toward any
// added member. Acks recorded from removed members are kept — harmless,
// since completion tests intersect with the current mask.
func (t *Tracker) Refit(full uint16) (completed []uint64) {
	t.full = full
	t.quorum = bits.OnesCount16(full)/2 + 1
	for _, set := range [2]map[uint64]PendingWrite{t.pending, t.settled} {
		for id, pw := range set {
			if pw.Acked&full == full {
				delete(set, id)
				completed = append(completed, id)
			}
		}
	}
	return completed
}

// Add registers a new write. selfAcked is the origin's own node bit, acked
// implicitly by the local apply.
func (t *Tracker) Add(opID, key uint64, self uint8) {
	t.pending[opID] = PendingWrite{OpID: opID, Key: key, Acked: 1 << self}
}

// Ack records node `from` acking write opID (pending or settled). It
// reports whether the write is tracked at all and whether it is now fully
// acked, in which case it has been removed from the tracker.
func (t *Tracker) Ack(opID uint64, from uint8) (known, done bool) {
	set := t.pending
	pw, ok := set[opID]
	if !ok {
		set = t.settled
		if pw, ok = set[opID]; !ok {
			return false, false
		}
	}
	pw.Acked |= 1 << from
	// Superset test, not equality: after a reconfiguration the entry may
	// hold acks from since-removed members, and after an add the mask can
	// grow mid-write.
	if pw.Acked&t.full == t.full {
		delete(set, opID)
		return true, true
	}
	set[opID] = pw
	return true, false
}

// Len reports how many unsettled writes still await full acknowledgement
// (the release barrier's and flow control's working set; settled writes no
// longer gate either).
func (t *Tracker) Len() int { return len(t.pending) }

// AllAcked reports whether every unsettled write has been acked by all
// nodes — the fast-path release condition. Settled writes are excluded:
// their DM-set is already published, which is all an in-group release
// needs.
func (t *Tracker) AllAcked() bool { return len(t.pending) == 0 }

// FullyAcked reports whether every write of the session — settled or not —
// has been acked by all nodes: the OpFlush condition. Unlike AllAcked it
// does not credit published DM-sets, because the fence exists for
// consumers that will never observe them (§DESIGN "Sharding").
func (t *Tracker) FullyAcked() bool { return len(t.pending) == 0 && len(t.settled) == 0 }

// QuorumAcked reports whether every tracked write has been acked by at
// least a quorum — invariant (1) of the slow-path release (§4.2).
func (t *Tracker) QuorumAcked() bool {
	for _, pw := range t.pending {
		if bits.OnesCount16(pw.Acked&t.full) < t.quorum {
			return false
		}
	}
	return true
}

// DMSet returns the delinquent machines bitmask: every node that has failed
// to ack at least one tracked write.
func (t *Tracker) DMSet() uint16 {
	var dm uint16
	for _, pw := range t.pending {
		dm |= t.full &^ pw.Acked
	}
	return dm
}

// Unacked returns, for write opID (pending or settled), the bitmask of
// nodes that have not acked it yet (used to retransmit to stragglers only).
func (t *Tracker) Unacked(opID uint64) uint16 {
	if pw, ok := t.pending[opID]; ok {
		return t.full &^ pw.Acked
	}
	if pw, ok := t.settled[opID]; ok {
		return t.full &^ pw.Acked
	}
	return 0
}

// Settle moves every pending write to the settled set: called once a
// slow-release has published the DM-set to a quorum, after which the
// writes are covered by this group's barrier invariant (AllAcked) — but
// they keep retransmitting and keep gating FullyAcked until every replica
// truly acks, because a published DM-set repairs only consumers that
// acquire in this group.
func (t *Tracker) Settle() {
	for id, pw := range t.pending {
		t.settled[id] = pw
	}
	clear(t.pending)
}
