// Package es implements Eventual Store (ES), the protocol Kite maps relaxed
// reads and writes to (§3.2 of the paper).
//
// ES achieves per-key Sequential Consistency for replicated KVSs by
// maintaining a Lamport logical clock (internal/llc) per key, giving every
// write a unique stamp that serialises writes to the key. It is
// deliberately minimal — exactly the "no more than necessary" protocol of
// the paper: reads execute locally against the node's KVS; writes apply
// locally with a bumped per-key LLC and broadcast the new value to every
// replica, which applies it iff the stamp is newer (last-writer-wins).
//
// What ES contributes to Kite beyond plain eventual consistency is the
// ACK TRACKING used by the Release Consistency barrier (§4.2): every
// relaxed write gathers acknowledgements from all replicas, and the Tracker
// in this package is the per-session write ledger the release barrier
// consults ("have all my writes been acked by everyone?") and from which
// the DM-set of delinquent machines is computed on timeout. Each entry
// (Write) is its write's only record: the broadcast, its resend time and
// its ackers.
//
// An entry is either pending or settled, a distinction introduced by the
// sharding layer (DESIGN.md "Sharding"):
//
//   - pending — not yet fully acked and not covered by any published
//     DM-set. Pending writes gate both the in-group release barrier
//     (AllAcked) and the cross-shard flush fence (FullyAcked).
//   - settled — a slow release has published a DM-set covering it. Settled
//     writes satisfy the in-group barrier (later acquires in this group
//     consult the DM-set) but keep retransmitting and keep gating the flush
//     fence, because a DM-set is invisible to consumers synchronising in a
//     different replica group.
//
// The ack an ES replica sends means, precisely: "a local read here can no
// longer miss this write". That meaning is load-bearing in two places — the
// fast path's all-ack rule (§4.2), and the rejoin design (DESIGN.md
// "Recovery"), where a replica catching up after a restart still applies
// and acks ES writes because it serves no local reads until its sweep
// completes and its applied writes survive the sweep's last-writer-wins
// merge.
package es
