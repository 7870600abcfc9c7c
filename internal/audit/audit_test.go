package audit

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kite"
	"kite/internal/history"
)

// TestSelfTest: the injected-violation drill must catch both staged
// violations through the full pipeline.
func TestSelfTest(t *testing.T) {
	sum, err := SelfTest()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.SampledOps != 5 {
		t.Fatalf("selftest sampled %d ops, want 5", sum.Stats.SampledOps)
	}
	if sum.Report.OK() {
		t.Fatal("selftest report clean — injected violations not caught")
	}
}

// TestAuditorHealthyLiveRun wraps live in-process sessions in the sampling
// recorder and runs the producer/consumer + RMW shape; a healthy cluster
// must audit clean, with real coverage.
func TestAuditorHealthyLiveRun(t *testing.T) {
	c, err := kite.NewCluster(kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := New(Config{Grace: 20 * time.Millisecond, Interval: 5 * time.Millisecond})
	prod := a.Wrap(c.Session(0, 0))
	cons := a.Wrap(c.Session(1, 1))
	rmw := a.Wrap(c.Session(2, 2))

	const rounds, keys = 5, 4
	for r := 1; r <= rounds; r++ {
		for k := 0; k < keys; k++ {
			if err := prod.Write(uint64(100+k), []byte(fmt.Sprintf("p0r%dk%d", r, k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.ReleaseWrite(9000, []byte(fmt.Sprintf("r%d", r))); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("r%d", r)
		for {
			v, err := cons.AcquireRead(9000)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) == want {
				break
			}
		}
		for k := 0; k < keys; k++ {
			if _, err := cons.Read(uint64(100 + k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := rmw.FAA(200, 1); err != nil {
			t.Fatal(err)
		}
	}

	a.Close()
	sum := a.Summary()
	if !sum.Report.OK() {
		t.Fatalf("healthy run flagged:\n%s", sum.Report.String())
	}
	if sum.Stats.SampledOps == 0 || sum.Stats.JudgedEvents == 0 || sum.Stats.CheckedReads == 0 {
		t.Fatalf("no audit coverage: %+v", sum.Stats)
	}
	if sum.Stats.DroppedEvents != 0 {
		t.Fatalf("dropped %d events with an idle stream", sum.Stats.DroppedEvents)
	}
	if sum.Report.Stats.Acquires == 0 || sum.Report.Stats.RMWs == 0 {
		t.Fatalf("checker stats empty: %+v", sum.Report.Stats)
	}
}

// TestAuditorSampling: the per-key coin is deterministic across sessions,
// rates land in a plausible band, and unsampled ops are counted.
func TestAuditorSampling(t *testing.T) {
	a := New(Config{KeyRate: 0.5, Seed: 7})
	defer a.Close()
	in, out := 0, 0
	for k := uint64(0); k < 4096; k++ {
		if a.keySampled(k) {
			in++
		} else {
			out++
		}
		if a.keySampled(k) != a.keySampled(k) {
			t.Fatal("key coin nondeterministic")
		}
	}
	if in < 1600 || in > 2500 {
		t.Fatalf("KeyRate 0.5 sampled %d/4096 keys", in)
	}

	s := a.Wrap(newScripted(make([]kite.Result, 4096)))
	for k := uint64(0); k < 2048; k++ {
		if _, err := s.Read(k); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	st := a.Stats()
	if st.SampledOps == 0 || st.SkippedOps == 0 {
		t.Fatalf("sampling accounting: %+v", st)
	}
	if st.SampledOps+st.SkippedOps != 2048 {
		t.Fatalf("sampled %d + skipped %d != 2048", st.SampledOps, st.SkippedOps)
	}
}

// TestAuditorBoundedMemory: a long clean workload under a tiny budget must
// evict, stay within the budget, and stay clean.
func TestAuditorBoundedMemory(t *testing.T) {
	a := New(Config{MaxEvents: 64, Grace: time.Millisecond, Interval: time.Millisecond})
	s := a.Wrap(newScripted(make([]kite.Result, 0)))
	// The scripted session returns empty results; use unique written
	// values and empty reads — a clean single-session history.
	for i := 0; i < 5000; i++ {
		if err := s.Write(uint64(i%7), []byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	sum := a.Summary()
	if !sum.Report.OK() {
		t.Fatalf("clean workload flagged under eviction:\n%s", sum.Report.String())
	}
	if sum.Stats.Evictions == 0 {
		t.Fatalf("5000 events under a 64-event budget evicted nothing: %+v", sum.Stats)
	}
	if sum.Stats.Retained > 64 {
		t.Fatalf("retained %d > budget 64", sum.Stats.Retained)
	}
}

// TestAuditorUnsampledSessionTransparent: rate-0-ish sessions pass through
// without recording.
func TestAuditorUnsampledSessionTransparent(t *testing.T) {
	a := New(Config{})
	defer a.Close()
	s := a.WrapRate(newScripted(make([]kite.Result, 8)), 0.0000001)
	for i := 0; i < 8; i++ {
		if _, err := s.Read(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if st := a.Stats(); st.SampledOps != 0 {
		t.Fatalf("near-zero session rate recorded %d ops", st.SampledOps)
	}
}

// TestOneRecorderTwoSinks wraps one session with both sinks — the offline
// history.Log and the auditor — and checks that every sampled op reaches
// both as the same event, field for field, invoke and complete instants
// included. The script covers a rejected DoBatch and a DoAsync that
// completes after a later Do (the auditor must still release its
// completions in index order).
func TestOneRecorderTwoSinks(t *testing.T) {
	log := history.New()
	a := newAuditor(Config{}) // no pump: the test reads the stream
	inner := newHeld()
	s := history.Record(inner, log.Sink(), a.Sink(1))

	if err := s.Write(1, []byte("w1")); err != nil {
		t.Fatal(err)
	}
	asyncDone := make(chan kite.Result, 1)
	s.DoAsync(kite.WriteOp(2, []byte("async")), func(r kite.Result) { asyncDone <- r })
	if _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DoBatch(context.Background(), []kite.Op{
		kite.WriteOp(3, []byte("b0")), kite.WriteOp(4, make([]byte, kite.MaxValueLen+1)),
	}); err == nil {
		t.Fatal("batch with an oversized value accepted")
	}
	if _, err := s.FAA(5, 2); err != nil {
		t.Fatal(err)
	}
	inner.fire() // the DoAsync completes after the later ops
	<-asyncDone
	if _, err := s.DoBatch(context.Background(), []kite.Op{kite.WriteOp(6, []byte("b1")), kite.ReadOp(6)}); err != nil {
		t.Fatal(err)
	}

	rec := log.Snapshot()
	if len(rec.Events) != 8 {
		t.Fatalf("log recorded %d events, want 8", len(rec.Events))
	}
	if async, read := rec.Events[1], rec.Events[2]; async.Complete <= read.Complete {
		t.Fatalf("script broken: async completed at %d, not after the later read at %d", async.Complete, read.Complete)
	}
	for _, i := range []int{3, 4} {
		if e := rec.Events[i]; e.Outcome != history.OutcomeNever || e.Batch < 0 {
			t.Fatalf("rejected batch op recorded as %+v", e)
		}
	}

	var done []history.Event
	for len(a.ch) > 0 {
		if m := <-a.ch; !m.invoke {
			done = append(done, m.e)
		}
	}
	if len(done) != len(rec.Events) {
		t.Fatalf("auditor saw %d completions, log %d events", len(done), len(rec.Events))
	}
	for i, e := range done {
		if e.Index != i {
			t.Fatalf("auditor completion %d carries index %d: released out of order", i, e.Index)
		}
		if !reflect.DeepEqual(e, rec.Events[i]) {
			t.Fatalf("op %d differs between sinks:\nlog:     %+v\nauditor: %+v", i, rec.Events[i], e)
		}
	}
}

// heldSession completes Do and DoBatch at once and holds every DoAsync
// callback until fire. DoBatch rejects a batch holding an oversized value
// whole, as every backend does.
type heldSession struct {
	kite.Ops
	held []func()
}

func newHeld() *heldSession {
	s := &heldSession{}
	s.Ops = kite.Ops{Doer: s}
	return s
}

func (s *heldSession) Do(ctx context.Context, op kite.Op) (kite.Result, error) {
	if op.Code == kite.OpRead {
		return kite.Result{Value: []byte("w1")}, nil
	}
	return kite.Result{}, nil
}

func (s *heldSession) DoAsync(op kite.Op, cb func(kite.Result)) {
	s.held = append(s.held, func() { cb(kite.Result{}) })
}

func (s *heldSession) fire() {
	for _, f := range s.held {
		f()
	}
	s.held = nil
}

func (s *heldSession) DoBatch(ctx context.Context, ops []kite.Op) ([]kite.Result, error) {
	out := make([]kite.Result, len(ops))
	for i, op := range ops {
		if len(op.Value) > kite.MaxValueLen {
			return nil, kite.ErrValueTooLong
		}
		out[i], _ = s.Do(ctx, op)
	}
	return out, nil
}

func (s *heldSession) Close() error { return nil }

// TestUnsampledOpsAllocateNothing: an op the auditor does not sample —
// its session's coin or its key's came up tails — goes straight to the
// wrapped session, with no event built, no value cloned and nothing
// allocated on any of the three submission paths.
func TestUnsampledOpsAllocateNothing(t *testing.T) {
	a := New(Config{KeyRate: 0.0000001})
	defer a.Close()
	inner := &nopSession{batch: make([]kite.Result, 4)}
	inner.Ops = kite.Ops{Doer: inner}
	ctx := context.Background()
	ops := []kite.Op{kite.WriteOp(1, []byte("v")), kite.ReadOp(2), kite.WriteOp(3, []byte("v")), kite.ReadOp(4)}
	for name, s := range map[string]kite.Session{
		"unsampled session": a.WrapRate(inner, 0.0000001),
		"unsampled keys":    a.WrapRate(inner, 1),
	} {
		if n := testing.AllocsPerRun(100, func() {
			s.Do(ctx, ops[0])
			s.DoAsync(ops[1], nil)
			s.DoBatch(ctx, ops)
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per Do+DoAsync+DoBatch, want 0", name, n)
		}
	}
	if st := a.Stats(); st.SampledOps != 0 || st.SkippedOps == 0 {
		t.Fatalf("sampled %d, skipped %d: want only skips", st.SampledOps, st.SkippedOps)
	}
}

// nopSession completes every op at once without allocating.
type nopSession struct {
	kite.Ops
	batch []kite.Result
}

func (s *nopSession) Do(context.Context, kite.Op) (kite.Result, error) { return kite.Result{}, nil }

func (s *nopSession) DoAsync(op kite.Op, cb func(kite.Result)) {
	if cb != nil {
		cb(kite.Result{})
	}
}

func (s *nopSession) DoBatch(context.Context, []kite.Op) ([]kite.Result, error) {
	return s.batch, nil
}

func (s *nopSession) Close() error { return nil }
