package audit

import (
	"context"
	"fmt"

	"kite"
)

// SelfTest drives a deliberately inconsistent history through the complete
// audit pipeline — recorder, sampling sink, stream, pump, incremental checker —
// using scripted sessions whose results are staged lies: an acquire that
// returns a release one wholly-completed release stale, and two FAAs that
// both observe the same old value. A healthy pipeline reports exactly
// those violations; anything less means the audit would be blind in
// production. kite-audit -selftest and the CI smoke run this.
func SelfTest() (*Summary, error) {
	a := New(Config{})
	defer a.Close()

	releaser := a.Wrap(newScripted([]kite.Result{{}, {}}))
	acquirer := a.Wrap(newScripted([]kite.Result{{Value: []byte("r1")}}))
	faa1 := a.Wrap(newScripted([]kite.Result{{}}))
	faa2 := a.Wrap(newScripted([]kite.Result{{}}))

	if err := releaser.ReleaseWrite(9, []byte("r1")); err != nil {
		return nil, err
	}
	if err := releaser.ReleaseWrite(9, []byte("r2")); err != nil {
		return nil, err
	}
	// The acquire starts after both releases completed, yet "observes" r1:
	// one synchronisation write wholly intervened — sync-stale-read.
	if _, err := acquirer.AcquireRead(9); err != nil {
		return nil, err
	}
	// Two FAAs both "observe" old value 0 — rmw-lost-update.
	if _, err := faa1.FAA(7, 1); err != nil {
		return nil, err
	}
	if _, err := faa2.FAA(7, 1); err != nil {
		return nil, err
	}

	a.Close()
	sum := a.Summary()
	want := map[string]bool{"sync-stale-read": false, "rmw-lost-update": false}
	for _, v := range sum.Report.Violations {
		if _, ok := want[v.Kind]; ok {
			want[v.Kind] = true
		}
	}
	for kind, got := range want {
		if !got {
			return sum, fmt.Errorf("audit selftest: injected %s not reported — pipeline is blind\n%s",
				kind, sum.Report.String())
		}
	}
	return sum, nil
}

// scriptedSession returns staged results in call order — a fake deployment
// that serves whatever inconsistency the self-test stages.
type scriptedSession struct {
	kite.Ops
	results []kite.Result
	calls   int
}

func newScripted(results []kite.Result) *scriptedSession {
	s := &scriptedSession{results: results}
	s.Ops = kite.Ops{Doer: s}
	return s
}

func (s *scriptedSession) Do(ctx context.Context, op kite.Op) (kite.Result, error) {
	if s.calls >= len(s.results) {
		return kite.Result{}, nil
	}
	r := s.results[s.calls]
	s.calls++
	return r, r.Err
}

func (s *scriptedSession) DoAsync(op kite.Op, cb func(kite.Result)) {
	r, _ := s.Do(context.Background(), op)
	if cb != nil {
		cb(r)
	}
}

func (s *scriptedSession) DoBatch(ctx context.Context, ops []kite.Op) ([]kite.Result, error) {
	out := make([]kite.Result, len(ops))
	for i, op := range ops {
		out[i], _ = s.Do(ctx, op)
	}
	return out, nil
}

func (s *scriptedSession) Close() error { return nil }
