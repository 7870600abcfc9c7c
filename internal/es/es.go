package es

import (
	"iter"
	"math/bits"
	"time"

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

// Write is one relaxed write in its session's ledger: the round that must
// cover every member, not a majority. The entry is the write's only record
// — its broadcast, when to resend it, and who has acked — and it leaves the
// ledger once every member has.
type Write struct {
	// Msg is the KindESWrite broadcast. Add fills in its kind, origin, key
	// and op id; the owner adds the rest, copying the value into Val so the
	// broadcast outlives the caller's buffer.
	Msg proto.Message
	Val [kvs.MaxValueLen]byte
	// RetryAt is when Msg is next resent to the members still missing.
	RetryAt time.Time
	acked   uint16 // members that acked (origin included)
	settled bool   // a slow release has published a DM-set covering it
}

// Tracker is a session's write ledger: every relaxed write not yet acked by
// every member. A release may begin only once no unsettled write remains —
// or once the slow-release protocol has published its DM-set, which settles
// the writes: covered for the purposes of *this group's* release barrier
// (later acquires here consult the DM-set), but still short of full
// replication, so they keep retransmitting. The distinction matters to
// OpFlush, the cross-shard fence: a DM-set is invisible to consumers
// synchronising in a different replica group, so the fence waits for every
// write, settled or not (FullyAcked), while releases keep the paper's
// availability story (AllAcked, unsettled only).
//
// Entries are kept by pointer and recycled, and the map keeps its buckets
// across deletes, so a ledger at its high-water mark records writes without
// allocating. Recycling is safe because the transport copies every payload
// it is handed, so no message in flight views a recycled entry's Val.
type Tracker struct {
	writes  map[uint64]*Write // by op id
	pending int               // writes not settled
	free    []*Write          // recycled entries
	full    uint16            // installed member mask
	quorum  int
}

// maxFree bounds a ledger's recycled entries. Steady state needs about
// MaxPendingWrites; the surplus an outage's settled writes leave behind when
// they drain is left to the GC.
const maxFree = 1024

// NewTracker creates a tracker for a deployment of n nodes (ids 0..n-1).
func NewTracker(n int) *Tracker {
	return NewTrackerMask(uint16(1<<n) - 1)
}

// NewTrackerMask creates a tracker for the member set given as a node-id
// bitmask — the membership-aware constructor (member ids need not be
// contiguous after a replica removal).
func NewTrackerMask(full uint16) *Tracker {
	return &Tracker{
		writes: make(map[uint64]*Write, 16),
		full:   full,
		quorum: bits.OnesCount16(full)/2 + 1,
	}
}

// Add ledgers write opID to key, acked so far by its origin self alone (the
// local apply), and returns its entry.
func (t *Tracker) Add(opID, key uint64, self uint8) *Write {
	var e *Write
	if n := len(t.free); n > 0 {
		e, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e = new(Write)
	}
	e.Msg = proto.Message{Kind: proto.KindESWrite, From: self, Key: key, OpID: opID}
	e.RetryAt, e.acked, e.settled = time.Time{}, 1<<self, false
	t.writes[opID] = e
	t.pending++
	return e
}

// Ack records node from acking write opID. Once every installed member has
// acked, the write leaves the ledger and Ack returns it, readable until the
// next Add recycles it; otherwise — the write still short, or not in the
// ledger at all — Ack returns nil.
func (t *Tracker) Ack(opID uint64, from uint8) *Write {
	e := t.writes[opID]
	if e == nil {
		return nil
	}
	e.acked |= 1 << from
	// Superset test, not a count: an ack from outside the mask (a member
	// added by a configuration the ledger is not refit to yet) must never
	// stand in for a member inside it, and after a removal the entry may
	// hold acks from members that are gone.
	if e.acked&t.full != t.full {
		return nil
	}
	t.remove(e)
	return e
}

func (t *Tracker) remove(e *Write) {
	delete(t.writes, e.Msg.OpID)
	if !e.settled {
		t.pending--
	}
	if len(t.free) < maxFree {
		t.free = append(t.free, e)
	}
}

// Refit retargets the ledger at a new member mask after a configuration
// install. Writes acked by every CURRENT member leave the ledger and are
// returned, readable until the next Add, so the owner can validate them —
// the case that matters is a removed replica whose missing ack would
// otherwise gate releases and flushes forever. Writes still short of the
// new mask stay, now also missing any added member. Acks recorded from
// removed members are kept — harmless, since completion intersects with the
// mask.
func (t *Tracker) Refit(full uint16) (completed []*Write) {
	t.full = full
	t.quorum = bits.OnesCount16(full)/2 + 1
	for _, e := range t.writes {
		if e.acked&full == full {
			t.remove(e)
			completed = append(completed, e)
		}
	}
	return completed
}

// All yields every write in the ledger, settled or not.
func (t *Tracker) All() iter.Seq[*Write] {
	return func(yield func(*Write) bool) {
		for _, e := range t.writes {
			if !yield(e) {
				return
			}
		}
	}
}

// Missing returns the members that have not acked e: its resend targets.
func (t *Tracker) Missing(e *Write) uint16 { return t.full &^ e.acked }

// Len reports how many unsettled writes still await full acknowledgement
// (the release barrier's and flow control's working set; settled writes no
// longer gate either).
func (t *Tracker) Len() int { return t.pending }

// AllAcked reports whether every unsettled write has been acked by all
// nodes — the fast-path release condition. Settled writes are excluded:
// their DM-set is already published, which is all an in-group release
// needs.
func (t *Tracker) AllAcked() bool { return t.pending == 0 }

// FullyAcked reports whether every write of the session — settled or not —
// has been acked by all nodes: the OpFlush condition. Unlike AllAcked it
// does not credit published DM-sets, because the fence exists for
// consumers that will never observe them (§DESIGN "Sharding").
func (t *Tracker) FullyAcked() bool { return len(t.writes) == 0 }

// QuorumAcked reports whether every unsettled write has been acked by at
// least a quorum — invariant (1) of the slow-path release (§4.2).
func (t *Tracker) QuorumAcked() bool {
	for _, e := range t.writes {
		if !e.settled && bits.OnesCount16(e.acked&t.full) < t.quorum {
			return false
		}
	}
	return true
}

// DMSet returns the delinquent machines bitmask: every node that has failed
// to ack at least one unsettled write.
func (t *Tracker) DMSet() uint16 {
	var dm uint16
	for _, e := range t.writes {
		if !e.settled {
			dm |= t.Missing(e)
		}
	}
	return dm
}

// Settle marks every write settled: called once a slow release has
// published the DM-set to a quorum, after which the writes are covered by
// this group's barrier invariant (AllAcked) — but they keep retransmitting
// and keep gating FullyAcked until every replica truly acks, because a
// published DM-set repairs only consumers that acquire in this group.
func (t *Tracker) Settle() {
	for _, e := range t.writes {
		e.settled = true
	}
	t.pending = 0
}
