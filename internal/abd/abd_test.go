package abd

import (
	"testing"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/proto"
)

func TestHandleReadTS(t *testing.T) {
	s := kvs.New(64)
	m := proto.Message{Kind: proto.KindReadTS, From: 1, Worker: 2, Key: 5, OpID: 9}
	rep := HandleReadTS(s, &m, 0, proto.KindReadTSReply)
	if rep.Kind != proto.KindReadTSReply || !rep.Stamp.IsZero() {
		t.Fatalf("missing key reply %+v", rep)
	}
	s.Apply(5, []byte("x"), llc.Stamp{Ver: 7, MID: 2})
	rep = HandleReadTS(s, &m, 0, proto.KindReadTSReply)
	if rep.Stamp != (llc.Stamp{Ver: 7, MID: 2}) {
		t.Fatalf("stamp = %v", rep.Stamp)
	}
}

func TestHandleWriteAcksStale(t *testing.T) {
	s := kvs.New(64)
	s.Apply(5, []byte("new"), llc.Stamp{Ver: 9, MID: 0})
	m := proto.Message{Kind: proto.KindABDWrite, From: 1, Key: 5, OpID: 3,
		Stamp: llc.Stamp{Ver: 2, MID: 0}, Value: []byte("old")}
	rep := HandleWrite(s, &m, 0)
	if rep.Kind != proto.KindABDWriteAck || rep.OpID != 3 {
		t.Fatalf("stale write not acked: %+v", rep)
	}
	buf := make([]byte, kvs.MaxValueLen)
	val, _, _, _ := s.View(5, buf)
	if string(val) != "new" {
		t.Fatal("stale write applied")
	}
}

func TestHandleRead(t *testing.T) {
	s := kvs.New(64)
	buf := make([]byte, kvs.MaxValueLen)
	m := proto.Message{Kind: proto.KindAcqRead, From: 1, Key: 8, OpID: 4}
	rep := HandleRead(s, &m, 0, buf)
	if !rep.Stamp.IsZero() || rep.Value != nil {
		t.Fatalf("missing key read %+v", rep)
	}
	s.Apply(8, []byte("abc"), llc.Stamp{Ver: 1, MID: 1})
	rep = HandleRead(s, &m, 0, buf)
	if string(rep.Value) != "abc" || rep.Stamp != (llc.Stamp{Ver: 1, MID: 1}) {
		t.Fatalf("read reply %+v", rep)
	}
}

func tsReply(from uint8, st llc.Stamp) *proto.Message {
	return &proto.Message{Kind: proto.KindReadTSReply, From: from, Stamp: st}
}

func TestWriteOpTwoRounds(t *testing.T) {
	w := NewWriteOp(1, 10, []byte("v"), 5, false) // quorum 3
	if w.OnReadTS(tsReply(0, llc.Stamp{Ver: 1, MID: 0})) {
		t.Fatal("round ended at 1 reply")
	}
	if w.OnReadTS(tsReply(0, llc.Stamp{Ver: 9, MID: 0})) {
		t.Fatal("duplicate replier advanced the round")
	}
	w.OnReadTS(tsReply(1, llc.Stamp{Ver: 4, MID: 2}))
	five := membership.Initial(5)
	if got := w.Tally().Missing(five); got != 0b11100 {
		t.Fatalf("Missing = %05b", got)
	}
	if !w.OnReadTS(tsReply(2, llc.Stamp{Ver: 2, MID: 1})) {
		t.Fatal("quorum not detected")
	}
	if w.MaxTS != (llc.Stamp{Ver: 4, MID: 2}) {
		t.Fatalf("MaxTS = %v", w.MaxTS)
	}
	// After the phase flip, the tally counts the value round.
	if got := w.Tally().Missing(five); got != 0b11111 {
		t.Fatalf("round-2 Missing = %05b", got)
	}
	// Round 2.
	vm := w.ValueMsg(llc.Stamp{Ver: 5, MID: 3}, 3, 0)
	if vm.Kind != proto.KindABDWrite || vm.Stamp != w.Stamp {
		t.Fatalf("value msg %+v", vm)
	}
	ack := func(from uint8) *proto.Message {
		return &proto.Message{Kind: proto.KindABDWriteAck, From: from}
	}
	if w.OnWriteAck(ack(3)) || w.OnWriteAck(ack(0)) {
		t.Fatal("completed below quorum")
	}
	if !w.OnWriteAck(ack(1)) {
		t.Fatal("write not completed at quorum")
	}
	if w.Phase != WriteDone {
		t.Fatal("phase not done")
	}
	// Late messages are ignored.
	if w.OnWriteAck(ack(2)) || w.OnReadTS(tsReply(4, llc.Stamp{})) {
		t.Fatal("late message advanced a done op")
	}
}

func readReply(from uint8, st llc.Stamp, val string, delinq bool) *proto.Message {
	m := &proto.Message{Kind: proto.KindReadReply, From: from, Stamp: st, Value: []byte(val)}
	if delinq {
		m.Flags = proto.FlagDelinquent
	}
	return m
}

func TestReadOpNoWriteBackWhenMaxAtQuorum(t *testing.T) {
	r := NewReadOp(1, 20, 5, true)
	st := llc.Stamp{Ver: 3, MID: 1}
	if r.OnReadReply(readReply(0, st, "v", false)) != ReadWait {
		t.Fatal("completed early")
	}
	if r.OnReadReply(readReply(1, st, "v", false)) != ReadWait {
		t.Fatal("completed early")
	}
	if got := r.OnReadReply(readReply(2, st, "v", false)); got != ReadComplete {
		t.Fatalf("action = %v, want complete", got)
	}
	if string(r.MaxVal) != "v" || r.MaxTS != st || r.Delinquent {
		t.Fatalf("result %q %v %v", r.MaxVal, r.MaxTS, r.Delinquent)
	}
}

// TestReadOpDelinqMaskCountedOnly: the flagger mask names exactly the
// counted round-1 repliers that flagged — a late flag arriving after the
// round resolved must not widen the reset-bit's target set.
func TestReadOpDelinqMaskCountedOnly(t *testing.T) {
	r := NewReadOp(1, 22, 3, true)
	st := llc.Stamp{Ver: 2, MID: 0}
	r.OnReadReply(readReply(0, st, "v", true))
	if got := r.OnReadReply(readReply(1, st, "v", false)); got != ReadComplete {
		t.Fatalf("action = %v, want complete", got)
	}
	if !r.Delinquent || r.DelinqMask != 1<<0 {
		t.Fatalf("mask = %b, want %b", r.DelinqMask, 1<<0)
	}
	// Replica 2's flag arrives after the round is done: ignored.
	if r.OnReadReply(readReply(2, st, "v", true)) != ReadWait {
		t.Fatal("late reply advanced a done op")
	}
	if r.DelinqMask != 1<<0 {
		t.Fatalf("late flag widened mask to %b", r.DelinqMask)
	}
}

func TestReadOpWriteBackPath(t *testing.T) {
	r := NewReadOp(1, 21, 5, true)
	low := llc.Stamp{Ver: 1, MID: 0}
	high := llc.Stamp{Ver: 5, MID: 2}
	r.OnReadReply(readReply(0, low, "old", false))
	r.OnReadReply(readReply(1, low, "old", false))
	if got := r.OnReadReply(readReply(2, high, "new", true)); got != ReadWriteBackNow {
		t.Fatalf("action = %v, want write-back", got)
	}
	if !r.Delinquent {
		t.Fatal("delinquent flag lost")
	}
	wb := r.WriteBackMsg(4, 0)
	if wb.Stamp != high || string(wb.Value) != "new" {
		t.Fatalf("write-back %+v", wb)
	}
	ack := func(from uint8) *proto.Message {
		return &proto.Message{Kind: proto.KindABDWriteAck, From: from}
	}
	if r.OnWriteAck(ack(0)) != ReadWait || r.OnWriteAck(ack(1)) != ReadWait {
		t.Fatal("write-back completed below quorum")
	}
	if r.OnWriteAck(ack(2)) != ReadComplete {
		t.Fatal("write-back quorum not detected")
	}
}

func TestReadOpSlowPathSkipsWriteBack(t *testing.T) {
	r := NewReadOp(1, 22, 5, false)
	low := llc.Stamp{Ver: 1, MID: 0}
	high := llc.Stamp{Ver: 5, MID: 2}
	r.OnReadReply(readReply(0, low, "old", false))
	r.OnReadReply(readReply(1, high, "new", false))
	if got := r.OnReadReply(readReply(2, low, "old", false)); got != ReadComplete {
		t.Fatalf("slow read action = %v, want complete", got)
	}
	if string(r.MaxVal) != "new" {
		t.Fatalf("MaxVal = %q", r.MaxVal)
	}
}

func TestReadOpZeroStampCompletesWithoutWriteBack(t *testing.T) {
	// All replicas at the initial state: nothing to write back even for a
	// linearizable read.
	r := NewReadOp(1, 23, 3, true)
	r.OnReadReply(readReply(0, llc.Zero, "", false))
	if got := r.OnReadReply(readReply(1, llc.Zero, "", false)); got != ReadComplete {
		t.Fatalf("action = %v", got)
	}
	if len(r.MaxVal) != 0 {
		t.Fatal("phantom value")
	}
}

func TestReadOpDuplicateRepliesIgnored(t *testing.T) {
	r := NewReadOp(1, 24, 5, true)
	st := llc.Stamp{Ver: 1, MID: 1}
	r.OnReadReply(readReply(0, st, "v", false))
	r.OnReadReply(readReply(0, st, "v", false))
	r.OnReadReply(readReply(0, st, "v", false))
	if r.Phase != ReadRound {
		t.Fatal("duplicates formed a quorum")
	}
	if got := r.Tally().Missing(membership.Initial(5)); got != 0b11110 {
		t.Fatalf("Missing = %05b", got)
	}
}

// TestReadOpRefitDropsRemovedVote: after a refit, a removed member's reply
// counts neither toward the round's quorum nor toward the max-stamp
// quorum that lets an acquire skip its write-back.
func TestReadOpRefitDropsRemovedVote(t *testing.T) {
	four := membership.Initial(4) // quorum 3
	r := NewReadOp(1, 25, four.N(), true)
	low, high := llc.Stamp{Ver: 1, MID: 0}, llc.Stamp{Ver: 5, MID: 2}
	r.OnReadReply(readReply(0, high, "new", false))
	r.OnReadReply(readReply(3, high, "new", false))
	shrunk := four.Remove(3) // {0,1,2}: quorum 2, node 3's vote is gone
	r.Tally().Refit(shrunk)
	if got := r.Decide(); got != ReadWait {
		t.Fatalf("refit action = %v, want wait (one surviving reply)", got)
	}
	// The second surviving reply quorates the round, but the max stamp is
	// only at node 0 among the counted: the value must be written back.
	if got := r.OnReadReply(readReply(1, low, "old", false)); got != ReadWriteBackNow {
		t.Fatalf("action = %v, want write-back", got)
	}
	// The write-back round refits too: shrunk to {0}, node 0's ack is a
	// quorum.
	r.OnWriteAck(&proto.Message{Kind: proto.KindABDWriteAck, From: 0})
	r.Tally().Refit(shrunk.Remove(2).Remove(1))
	if got := r.Decide(); got != ReadComplete || string(r.MaxVal) != "new" {
		t.Fatalf("write-back refit: %v %q", got, r.MaxVal)
	}
}

// TestWriteOpRefitResolvesBlockedRound: a write round blocked only on a
// removed member advances once the tally is refit.
func TestWriteOpRefitResolvesBlockedRound(t *testing.T) {
	three := membership.Initial(3)
	w := NewWriteOp(1, 31, []byte("v"), three.N(), false)
	w.OnReadTS(tsReply(0, llc.Stamp{Ver: 3, MID: 1}))
	w.Tally().Refit(three.Remove(2).Remove(1))
	if !w.Decide() || w.Phase != WriteValue || w.MaxTS != (llc.Stamp{Ver: 3, MID: 1}) {
		t.Fatalf("LLC round not resolved by refit: phase %v", w.Phase)
	}
	if w.Decide() {
		t.Fatal("empty value round advanced")
	}
}

func TestWriteOpFireAndForgetFlag(t *testing.T) {
	w := NewWriteOp(1, 30, []byte("v"), 3, true)
	if !w.FireAndForget {
		t.Fatal("flag lost")
	}
}

// TestReadAfterWriteSeesValue glues handlers and ops end to end over three
// in-memory replicas: a full ABD write followed by an ABD read must return
// the written value — the register safety property.
func TestReadAfterWriteSeesValue(t *testing.T) {
	const n = 3
	stores := [n]*kvs.Store{kvs.New(64), kvs.New(64), kvs.New(64)}
	buf := make([]byte, kvs.MaxValueLen)

	// Writer on node 0.
	w := NewWriteOp(7, 1, []byte("ping"), n, false)
	req := w.ReadTSMsg(0, 0, proto.KindReadTS)
	for i := 0; i < n; i++ {
		rep := HandleReadTS(stores[i], &req, uint8(i), proto.KindReadTSReply)
		w.OnReadTS(&rep)
	}
	if w.Phase != WriteValue {
		t.Fatal("write stuck in round 1")
	}
	st := stores[0].WriteAtLeast(7, []byte("ping"), w.MaxTS, 0, 0)
	vm := w.ValueMsg(st, 0, 0)
	for i := 1; i < n; i++ {
		rep := HandleWrite(stores[i], &vm, uint8(i))
		w.OnWriteAck(&rep)
	}
	self := proto.Message{Kind: proto.KindABDWriteAck, From: 0}
	w.OnWriteAck(&self)
	if w.Phase != WriteDone {
		t.Fatal("write not done")
	}

	// Reader on node 2.
	r := NewReadOp(7, 2, n, true)
	rm := r.ReadMsg(2, 0, proto.KindAcqRead)
	for i := 0; i < n; i++ {
		rep := HandleRead(stores[i], &rm, uint8(i), buf)
		if r.OnReadReply(&rep) == ReadComplete {
			break
		}
	}
	if r.Phase != ReadDone || string(r.MaxVal) != "ping" {
		t.Fatalf("read got %q (phase %v)", r.MaxVal, r.Phase)
	}
}
