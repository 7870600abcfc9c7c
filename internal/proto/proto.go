// Package proto defines the wire messages exchanged by every protocol in the
// system: Eventual Store, ABD, per-key Paxos, Kite's slow-path barrier
// traffic, and the ZAB and Derecho baselines.
//
// A single flat Message struct is shared by all protocols so that one
// mailbox, one batching layer and one codec serve everything — mirroring
// Kite's design of batching messages of all protocols into the same network
// packets (§6.3 of the paper).
package proto

import "kite/internal/llc"

// Kind discriminates the protocol action a Message carries.
type Kind uint8

// Message kinds. The comment after each kind lists the fields it uses.
const (
	KindInvalid Kind = iota

	// Eventual Store (relaxed writes; §3.2).
	KindESWrite // Key, Stamp, Value, OpID: apply value if Stamp is newer, then ack
	KindESAck   // OpID: sender has applied (or superseded) the write

	// ABD (releases and acquires; §3.3). ReadTS is the lightweight first
	// round of an ABD write which only fetches the key's LLC.
	KindReadTS       // Key, OpID
	KindReadTSReply  // OpID, Stamp
	KindABDWrite     // Key, Stamp, Value, OpID: second round of ABD write / acquire write-back
	KindABDWriteAck  // OpID
	KindAcqRead      // Key, OpID: acquire read round; reply carries delinquency flag
	KindSlowRead     // Key, OpID: stripped slow-path relaxed read (no delinquency action)
	KindReadReply    // OpID, Stamp, Value, Flags(FlagDelinquent)
	KindSlowWriteTS  // Key, OpID: LLC-only quorum read for a slow-path relaxed write
	KindSlowWriteTSR // OpID, Stamp

	// Kite slow-path barrier traffic (§4.2).
	KindSlowRelease    // OpID, Bits = DM-set bitmask
	KindSlowReleaseAck // OpID
	KindResetBit       // OpID = unique id of the acquire that discovered delinquency

	// Per-key Paxos (RMWs; §3.4). Slot is the per-key consensus instance
	// (the number of RMWs committed on the key so far).
	KindPropose    // Key, Slot, Stamp = ballot, OpID
	KindProposeAck // OpID, Flags, Slot, Stamp, Value, Bits (see paxos package)
	KindAccept     // Key, Slot, Stamp, Value, OpID
	KindAcceptAck  // OpID, Flags, Slot
	KindCommit     // Key, Slot, Stamp, Value, OpID: every receiver acks it
	KindCommitAck  // OpID, Bits (the echoed attempt tag): an RMW completes on a quorum of these
	KindPaxosLearn // Key, Slot, Stamp, Value: catch-up reply for laggards
	kindReserved22 // retired (a committed-state query nothing sent); later kinds keep their values
	kindReserved23 // retired (its reply)

	// ZAB baseline (§7).
	KindZabSubmit   // Key, Value, OpID: forward write to the leader
	KindZabProposal // Slot = zxid, Key, Value
	KindZabAck      // Slot = zxid
	KindZabCommit   // Slot = zxid
	KindZabReply    // OpID: leader tells origin the write committed

	// Derecho-like SMR baseline (§7).
	KindDerechoMsg // Slot = sender sequence, Key, Value
	KindDerechoAck // Slot, Bits = sender id

	// Restart / anti-entropy catch-up (DESIGN.md "Recovery"). A rejoining
	// replica walks a peer's key space in bucket-cursor order; the peer
	// streams back (key, LLC, value) items plus the committed per-key Paxos
	// state, closing each chunk with an End frame that advances the cursor
	// and carries the peer's delinquency mask.
	KindCatchupPull // OpID, Slot = bucket cursor: request one chunk of the peer's key space
	KindCatchupItem // OpID, Key, Stamp, Value; Slot/Origin/Origins = committed Paxos state (0/none if the key has no consensus state)
	KindCatchupEnd  // OpID, Slot = next cursor, Origin = echo of the request cursor, Bits = peer's delinquency mask, FlagCatchupDone when the sweep reached the end of the peer's store

	// Group configuration exchange (DESIGN.md "Membership"). These are the
	// only kinds exempt from the receive-side epoch check: they exist to
	// heal epoch disagreement, so they must flow between disagreeing nodes.
	KindConfigPull // OpID: request the sender's installed group config
	KindConfigInfo // Slot = config epoch, Bits = member bitmask; sent as a reply to a pull and pushed unsolicited at nodes observed behind

	// Local-read validation (DESIGN.md "Local reads"). Fire-and-forget,
	// no reply: a lost or dropped validate only costs a fallback to the
	// ABD read, never correctness.
	KindESValidate // Origins = packed (key, stamp) pairs of relaxed writes acked by every current member

	kindCount
)

var kindNames = [...]string{
	KindInvalid:        "invalid",
	KindESWrite:        "es-write",
	KindESAck:          "es-ack",
	KindReadTS:         "read-ts",
	KindReadTSReply:    "read-ts-reply",
	KindABDWrite:       "abd-write",
	KindABDWriteAck:    "abd-write-ack",
	KindAcqRead:        "acq-read",
	KindSlowRead:       "slow-read",
	KindReadReply:      "read-reply",
	KindSlowWriteTS:    "slow-write-ts",
	KindSlowWriteTSR:   "slow-write-ts-reply",
	KindSlowRelease:    "slow-release",
	KindSlowReleaseAck: "slow-release-ack",
	KindResetBit:       "reset-bit",
	KindPropose:        "propose",
	KindProposeAck:     "propose-ack",
	KindAccept:         "accept",
	KindAcceptAck:      "accept-ack",
	KindCommit:         "commit",
	KindCommitAck:      "commit-ack",
	KindPaxosLearn:     "paxos-learn",
	kindReserved22:     "reserved",
	kindReserved23:     "reserved",
	KindZabSubmit:      "zab-submit",
	KindZabProposal:    "zab-proposal",
	KindZabAck:         "zab-ack",
	KindZabCommit:      "zab-commit",
	KindZabReply:       "zab-reply",
	KindDerechoMsg:     "derecho-msg",
	KindDerechoAck:     "derecho-ack",
	KindCatchupPull:    "catchup-pull",
	KindCatchupItem:    "catchup-item",
	KindCatchupEnd:     "catchup-end",
	KindConfigPull:     "config-pull",
	KindConfigInfo:     "config-info",
	KindESValidate:     "es-validate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind?"
}

// Flag bits carried in Message.Flags.
const (
	// FlagDelinquent on a reply tells the requester's machine that it has
	// been deemed delinquent and must transition to the slow path.
	FlagDelinquent uint8 = 1 << iota
	// FlagNack marks a negative protocol reply (Paxos reject, stale slot).
	FlagNack
	// FlagHasAccepted marks a Paxos promise that carries an accepted-but-
	// uncommitted value the proposer must help complete.
	FlagHasAccepted
	// FlagCommitted marks a Paxos reply that carries a newer committed
	// (slot, value) the proposer must catch up to.
	FlagCommitted
	// FlagOwnCommitted marks a Paxos nack telling the proposer that its
	// own RMW has already been committed (by a helper), so it must finish
	// rather than re-execute — the exactly-once guard for helped RMWs.
	FlagOwnCommitted
	// FlagSlotKnown marks a Paxos committed-nack whose Origin field is the
	// authoritative origin of the REQUESTER's slot (the replica applied
	// that slot directly and still has it in its history), letting the
	// proposer distinguish "my value lost this slot" from "no information".
	FlagSlotKnown
	// FlagCatchupDone marks a catch-up End frame whose chunk reached the
	// end of the peer's store: the rejoining replica's sweep of this peer
	// is complete.
	FlagCatchupDone
)

// MaxValueLen is the largest value the codec supports. The paper evaluates
// 32-byte values; 64 leaves room for data-structure nodes with ABA counters.
const MaxValueLen = 64

// Message is the single wire unit. Fields are overloaded per Kind as
// documented on the kind constants. Messages are passed by value inside the
// in-process transport and serialised by Marshal for the UDP transport.
type Message struct {
	Kind   Kind
	Flags  uint8
	From   uint8 // originating node id
	Worker uint8 // originating worker index (replies are routed back to it)
	// Epoch is the sender's group configuration epoch, stamped on every
	// outgoing frame at send time and checked on receive: frames from a
	// different epoch are dropped (and trigger a config exchange) so that a
	// quorum is always assembled from replicas agreeing on the member set it
	// is a majority of. See kite/internal/membership.
	Epoch  uint32
	Key    uint64
	OpID   uint64 // originator-unique operation id, echoed by replies
	Stamp  llc.Stamp
	Slot   uint64 // Paxos slot / ZAB zxid / Derecho sequence
	Origin uint64 // op id of the RMW that produced a Paxos value (exactly-once tag)
	// SlotOrigin, with FlagSlotKnown, is the authoritative origin of the
	// REQUESTER's slot on a Paxos committed-nack (who won the slot the
	// proposer is about to abandon).
	SlotOrigin uint64
	Bits       uint16 // DM-set bitmask / auxiliary small payload
	Value      []byte
	// Origins carries recently committed RMW origins (newest first) on
	// Paxos commits, learns and committed-nacks, so replicas that skip
	// slots — and proposers that restart — still learn which RMWs are
	// already committed (exactly-once across slot jumps). Max 16 entries.
	Origins []uint64
}

// MaxOrigins bounds Message.Origins.
const MaxOrigins = 16

// IsReply reports whether the message is a response routed to a pending op
// (as opposed to a request handled against the local store).
func (m *Message) IsReply() bool {
	switch m.Kind {
	case KindESAck, KindReadTSReply, KindABDWriteAck, KindReadReply,
		KindSlowWriteTSR, KindSlowReleaseAck, KindProposeAck, KindAcceptAck,
		KindCommitAck, KindZabReply,
		KindCatchupItem, KindCatchupEnd:
		return true
	}
	return false
}

// Reply constructs a response of the given kind addressed back to m's
// originator, echoing the op id. The caller fills protocol-specific fields.
func (m *Message) Reply(kind Kind, from uint8) Message {
	return Message{Kind: kind, From: from, Worker: m.Worker, Key: m.Key, OpID: m.OpID}
}
