package core

import (
	"time"

	"kite/internal/membership"
	"kite/internal/proto"
)

// Quorum rounds (DESIGN.md "internal/core"). Every wait on a quorum — an
// ABD LLC, value, read or write-back round, a Paxos phase, a slow-release
// broadcast — is a round: a membership.Tally inside the protocol state
// machine counts its distinct repliers, and a round record here keeps the
// message that opened it and when to resend it. The worker owns what every
// round needs and no op decides differently: retransmission (scanDeadlines,
// which resends a relaxed write's ledger entry — the round that must cover
// every member — by the same rule) and reconfiguration (refitRounds). An op
// decides only what its replies mean and what it does on a timer that is
// not a resend.

// round is the retransmission record of one of an op's quorum rounds.
type round struct {
	tally   *membership.Tally // the protocol's count of this round's repliers
	msg     proto.Message     // the round's broadcast, resent to tally's Missing set
	retryAt time.Time         // zero while the round has nothing on the wire
}

// open makes m the round's message, arms its retransmission and broadcasts
// it to every member, the local replica included. The record is written
// before the broadcast: the loopback reply may resolve — and close — the
// round inline.
func (w *Worker) open(r *round, m proto.Message) {
	r.msg = m
	r.retryAt = w.now.Add(w.node.cfg.RetryInterval)
	w.broadcastAll(m)
}

// close stops the round's retransmission (resolved, or waiting on something
// other than replies).
func (r *round) close() { r.retryAt = time.Time{} }

// refitRounds is the one config-change path for quorum rounds: every
// round's tally drops removed members' replies and recounts its majority
// against the installed configuration, then its op resolves exactly as it
// does after a reply — so a round blocked solely on a removed member
// completes instead of retransmitting forever at a node whose frames the
// epoch check rejects.
func (w *Worker) refitRounds() {
	cfg := w.node.View()
	for _, s := range w.sessions {
		if s.head == nil {
			continue
		}
		for _, r := range s.head.rounds() {
			if r != nil {
				r.tally.Refit(cfg)
			}
		}
		s.head.resolve(w)
	}
}

// untimed is embedded by pending ops that take no timed decision: their
// only timer is their rounds' retransmission.
type untimed struct{}

func (untimed) nextDeadline() time.Time       { return time.Time{} }
func (untimed) onDeadline(*Worker, time.Time) {}
