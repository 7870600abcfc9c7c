package history

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"kite"
)

func testCluster(t *testing.T) *kite.Cluster {
	t.Helper()
	c, err := kite.NewCluster(kite.Options{
		Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRecorderCapturesOps: the wrapper is transparent (results pass
// through) and every submission path lands in the log with the right
// classification, ordering and intervals.
func TestRecorderCapturesOps(t *testing.T) {
	c := testCluster(t)
	log := New()
	s := log.Wrap(c.Session(0, 0))

	if err := s.Write(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(1); err != nil || string(v) != "v1" {
		t.Fatalf("read through recorder = %q, %v", v, err)
	}
	if err := s.ReleaseWrite(2, []byte("flag")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.AcquireRead(2); err != nil || string(v) != "flag" {
		t.Fatalf("acquire through recorder = %q, %v", v, err)
	}
	if old, err := s.FAA(3, 5); err != nil || old != 0 {
		t.Fatalf("faa = %d, %v", old, err)
	}
	// Async completes through the recorder too.
	done := make(chan kite.Result, 1)
	s.DoAsync(kite.WriteOp(4, []byte("async")), func(r kite.Result) { done <- r })
	if r := <-done; r.Err != nil {
		t.Fatal(r.Err)
	}
	// A batch shares one batch id; a rejected op is OutcomeNever.
	if _, err := s.DoBatch(context.Background(), []kite.Op{
		kite.WriteOp(5, []byte("b0")), kite.ReadOp(5),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(6, make([]byte, kite.MaxValueLen+1)); err == nil {
		t.Fatal("oversized write accepted")
	}

	rec := log.Snapshot()
	if len(rec.Events) != 9 {
		t.Fatalf("recorded %d events, want 9", len(rec.Events))
	}
	for i, e := range rec.Events {
		if e.Index != i || e.Session != 0 {
			t.Fatalf("event %d has coords s%d#%d", i, e.Session, e.Index)
		}
		if e.Complete < e.Invoke {
			t.Fatalf("event %d interval inverted: %+v", i, e)
		}
		if i > 0 && e.Invoke < rec.Events[i-1].Invoke {
			t.Fatalf("event %d invoked before its predecessor", i)
		}
	}
	if e := rec.Events[1]; e.Op != kite.OpRead || string(e.Out) != "v1" || e.Outcome != OutcomeOK {
		t.Fatalf("read event = %+v", e)
	}
	if e := rec.Events[4]; e.Op != kite.OpFAA || e.Delta != 5 || !bytes.Equal(e.Value(), kite.EncodeUint64(5)) {
		t.Fatalf("faa event = %+v (value %q)", e, e.Value())
	}
	if b0, b1 := rec.Events[6], rec.Events[7]; b0.Batch != b1.Batch || b0.Batch < 0 {
		t.Fatalf("batch ids: %d vs %d", b0.Batch, b1.Batch)
	}
	if e := rec.Events[8]; e.Outcome != OutcomeNever {
		t.Fatalf("rejected write classified %q, want never", e.Outcome)
	}
}

// TestRecorderSessionIds: each wrapped session records under its own id.
func TestRecorderSessionIds(t *testing.T) {
	c := testCluster(t)
	log := New()
	a := log.Wrap(c.Session(0, 0))
	b := log.Wrap(c.Session(1, 1))
	if err := a.Write(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	rec := log.Snapshot()
	if len(rec.Events) != 2 || rec.Events[0].Session != 0 || rec.Events[1].Session != 1 {
		t.Fatalf("events = %+v", rec.Events)
	}
}

// TestJSONRoundTripAndMerge: serialise, reload, merge two process logs —
// sessions renumbered, timestamps re-anchored to the earliest base.
func TestJSONRoundTripAndMerge(t *testing.T) {
	recA := &Recorded{BaseWallNS: 1000, Events: []Event{
		{Session: 0, Index: 0, Op: kite.OpWrite, Key: 1, Arg: []byte("x"), Outcome: OutcomeOK, Invoke: 10, Complete: 20, Batch: -1},
		{Session: 1, Index: 0, Op: kite.OpRead, Key: 1, Out: []byte("x"), Outcome: OutcomeOK, Invoke: 30, Complete: 40, Batch: -1},
	}}
	var buf bytes.Buffer
	if err := recA.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recA, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", recA, back)
	}

	recB := &Recorded{BaseWallNS: 500, Events: []Event{
		{Session: 0, Index: 0, Op: kite.OpAcquire, Key: 1, Outcome: OutcomeOK, Invoke: 5, Complete: 9, Batch: -1},
	}}
	merged := Merge(recA, recB)
	if merged.BaseWallNS != 500 {
		t.Fatalf("merged base = %d, want 500", merged.BaseWallNS)
	}
	if len(merged.Events) != 3 {
		t.Fatalf("merged %d events", len(merged.Events))
	}
	// recA's events shifted by +500 and keep session ids 0,1; recB's one
	// session renumbered to 2.
	if merged.Events[0].Invoke != 510 || merged.Events[1].Session != 1 {
		t.Fatalf("merged[0..1] = %+v", merged.Events[:2])
	}
	if merged.Events[2].Session != 2 || merged.Events[2].Invoke != 5 {
		t.Fatalf("merged[2] = %+v", merged.Events[2])
	}
}

// TestSnapshotClosesPending: an op still in flight at snapshot time is
// recorded as indeterminate rather than lost or left open.
func TestSnapshotClosesPending(t *testing.T) {
	log := New()
	log.Sink().Invoke(Event{Op: kite.OpWrite, Key: 1, Arg: []byte("x"), Batch: -1, Invoke: Now(), Complete: -1})
	rec := log.Snapshot()
	if len(rec.Events) != 1 {
		t.Fatalf("events = %+v", rec.Events)
	}
	if e := rec.Events[0]; e.Outcome != OutcomeMaybe || e.Complete < e.Invoke {
		t.Fatalf("pending event closed as %+v", e)
	}
}

// TestSnapshotPendingInvokedAfterClockRead: Snapshot reads its clock before
// it takes the session locks, so an op can be invoked in between. Stamping
// that op's invoke a second past the snapshot's clock read replays the
// race deterministically; the closed interval must still be ordered.
func TestSnapshotPendingInvokedAfterClockRead(t *testing.T) {
	log := New()
	log.Sink().Invoke(Event{Op: kite.OpWrite, Key: 1, Arg: []byte("late"), Batch: -1, Invoke: Now() + int64(time.Second), Complete: -1})
	rec := log.Snapshot()
	if e := rec.Events[0]; e.Outcome != OutcomeMaybe || e.Complete < e.Invoke {
		t.Fatalf("late pending event closed as [%d, %d]: %+v", e.Invoke, e.Complete, e)
	}
}
