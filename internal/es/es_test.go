package es

import (
	"testing"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

func TestHandleWriteAppliesAndAcks(t *testing.T) {
	s := kvs.New(64)
	m := proto.Message{
		Kind: proto.KindESWrite, From: 1, Worker: 3, Key: 9, OpID: 77,
		Stamp: llc.Stamp{Ver: 4, MID: 1}, Value: []byte("v"),
	}
	ack := HandleWrite(s, &m, 2)
	if ack.Kind != proto.KindESAck || ack.OpID != 77 || ack.From != 2 || ack.Worker != 3 {
		t.Fatalf("bad ack %+v", ack)
	}
	buf := make([]byte, kvs.MaxValueLen)
	val, st, _, ok := s.View(9, buf)
	if !ok || string(val) != "v" || st != m.Stamp {
		t.Fatalf("not applied: %q %v %v", val, st, ok)
	}
	// An older write still acks but does not clobber.
	old := m
	old.Stamp = llc.Stamp{Ver: 3, MID: 5}
	old.Value = []byte("stale")
	ack = HandleWrite(s, &old, 2)
	if ack.Kind != proto.KindESAck {
		t.Fatal("old write not acked")
	}
	val, _, _, _ = s.View(9, buf)
	if string(val) != "v" {
		t.Fatalf("old write clobbered: %q", val)
	}
}

func TestTrackerFastPath(t *testing.T) {
	tr := NewTracker(5)
	tr.Add(1, 100, 0)
	tr.Add(2, 101, 0)
	if tr.AllAcked() {
		t.Fatal("fresh tracker claims all acked")
	}
	for _, from := range []uint8{1, 2, 3, 4} {
		tr.Ack(1, from)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after full ack of one write", tr.Len())
	}
	for _, from := range []uint8{1, 2, 3} {
		tr.Ack(2, from)
	}
	if tr.AllAcked() {
		t.Fatal("3/5 acks treated as all")
	}
	if e := tr.Ack(2, 4); e == nil || e.Msg.OpID != 2 || e.Msg.Key != 101 {
		t.Fatal("final ack not detected")
	}
	if !tr.AllAcked() {
		t.Fatal("tracker not clean")
	}
}

func TestTrackerDuplicateAndUnknownAcks(t *testing.T) {
	tr := NewTracker(3)
	tr.Add(1, 100, 0)
	tr.Ack(1, 1)
	tr.Ack(1, 1) // duplicate
	if tr.AllAcked() {
		t.Fatal("duplicate ack completed the write")
	}
	if tr.Ack(99, 1) != nil || tr.writes[99] != nil {
		t.Fatal("unknown op acked")
	}
	tr.Ack(1, 2)
	if !tr.AllAcked() {
		t.Fatal("write not settled")
	}
	if tr.Ack(1, 2) != nil || tr.writes[1] != nil {
		t.Fatal("ack after settle returned state")
	}
}

func TestTrackerQuorumAndDMSet(t *testing.T) {
	tr := NewTracker(5) // quorum = 3
	tr.Add(1, 100, 0)   // acked by {0}
	tr.Add(2, 101, 0)   // acked by {0}
	if tr.QuorumAcked() {
		t.Fatal("quorum with a single ack")
	}
	tr.Ack(1, 1)
	tr.Ack(1, 2) // write 1: {0,1,2} = quorum
	tr.Ack(2, 3) // write 2: {0,3} = below quorum
	if tr.QuorumAcked() {
		t.Fatal("write 2 below quorum but QuorumAcked true")
	}
	tr.Ack(2, 4) // write 2: {0,3,4} = quorum
	if !tr.QuorumAcked() {
		t.Fatal("both writes at quorum but QuorumAcked false")
	}
	// DM-set: write 1 missing {3,4}, write 2 missing {1,2}.
	if dm := tr.DMSet(); dm != 0b11110 {
		t.Fatalf("DMSet = %05b, want 11110", dm)
	}
	if un := tr.Missing(tr.writes[1]); un != 0b11000 {
		t.Fatalf("Missing(1) = %05b", un)
	}
	if tr.writes[42] != nil {
		t.Fatal("unknown write has an entry")
	}
}

func TestTrackerSettle(t *testing.T) {
	tr := NewTracker(3)
	tr.Add(5, 100, 0)
	tr.Add(6, 101, 0)
	tr.Settle()
	// Settled writes satisfy the release barrier (AllAcked) but keep
	// gating the cross-shard fence (FullyAcked) and keep retransmitting
	// (their missing set) until every replica acks.
	if !tr.AllAcked() || tr.Len() != 0 {
		t.Fatal("tracker not barrier-clean after settle")
	}
	if tr.FullyAcked() {
		t.Fatal("settled writes must still gate FullyAcked")
	}
	if un := tr.Missing(tr.writes[5]); un != 0b110 {
		t.Fatalf("Missing(settled) = %03b, want 110", un)
	}
	// Tracker remains usable.
	tr.Add(7, 102, 1)
	if tr.Len() != 1 {
		t.Fatal("tracker unusable after settle")
	}
	// Acks drain settled entries into full acknowledgement.
	for _, from := range []uint8{1, 2} {
		tr.Ack(5, from)
		tr.Ack(6, from)
	}
	tr.Ack(7, 0)
	tr.Ack(7, 2)
	if !tr.FullyAcked() {
		t.Fatal("tracker not fully acked after all acks")
	}
}

func TestTrackerRefit(t *testing.T) {
	// 4 members {0,1,2,3}; two writes, one missing only node 3's ack, one
	// missing nodes 2 and 3.
	tr := NewTrackerMask(0b1111)
	tr.Add(1, 10, 0)
	tr.Ack(1, 1)
	tr.Ack(1, 2)
	tr.Add(2, 20, 0)
	tr.Ack(2, 1)
	if tr.AllAcked() {
		t.Fatal("writes should be pending")
	}
	// Removing node 3 completes write 1 (acked by all of {0,1,2}) but not
	// write 2 (still missing node 2).
	done := tr.Refit(0b0111)
	if len(done) != 1 || done[0].Msg.OpID != 1 || done[0].Msg.Key != 10 {
		t.Fatalf("Refit completed %v, want write 1", done)
	}
	if tr.AllAcked() || tr.Missing(tr.writes[2]) != 0b0100 {
		t.Fatalf("write 2 should still await node 2 (missing %b)", tr.Missing(tr.writes[2]))
	}
	// Node 2's remaining ack completes write 2 under the shrunk set.
	if tr.Ack(2, 2) == nil {
		t.Fatal("write 2 should complete once node 2 acked")
	}
	// Growing the set mid-write: the old members' acks no longer suffice
	// once node 4 joins — the write also waits for the joiner.
	tr.Add(3, 30, 0)
	tr.Refit(0b10111)
	tr.Ack(3, 1)
	if tr.Ack(3, 2) != nil {
		t.Fatal("write 3 completed without the joiner's ack")
	}
	if tr.Ack(3, 4) == nil {
		t.Fatal("write 3 should complete once every member of the grown set acked")
	}
	// A stale ack from a removed member is harmless.
	tr.Refit(0b0111)
	if tr.Ack(99, 3) != nil || tr.writes[99] != nil {
		t.Fatal("unknown write acked")
	}
}

// TestTrackerAckOutsideMaskNeverCompletes pins the superset rule: an ack
// from a node outside the installed mask — a member added by a
// configuration the ledger is not refit to yet — must not stand in for a
// member inside it, as a count of acks against the member count would.
func TestTrackerAckOutsideMaskNeverCompletes(t *testing.T) {
	tr := NewTracker(3)
	tr.Add(1, 10, 0)
	tr.Ack(1, 3) // outside {0,1,2}
	if tr.Ack(1, 1) != nil || tr.FullyAcked() {
		t.Fatal("acks from {0,1,3} completed a write node 2 has not acked")
	}
	if un := tr.Missing(tr.writes[1]); un != 0b100 {
		t.Fatalf("Missing = %03b, want 100", un)
	}
	if tr.Ack(1, 2) == nil {
		t.Fatal("node 2's ack should complete the write")
	}
}
