package audit

import (
	"sync"

	"kite"
	"kite/internal/history"
)

// sink is the auditor's history.Sink for one recorded session. Sampled
// operations emit an invoke record at submission and a completion record
// when the result lands; everything else is counted as skipped.
//
// The checker requires each recording session's completion records in
// dense index order. Completions normally arrive in submission order (the
// Session contract), but a Do result returns on the caller's goroutine
// while an earlier DoAsync callback may still be in flight — so the sink
// holds completions back and releases them strictly in index order.
// Invoke records carry no ordering contract and are sent best-effort
// (dropped under backpressure); completion records block on the stream,
// and once the auditor is closed they drop as a suffix, never opening a
// gap.
type sink struct {
	a       *Auditor
	id      int
	sampled bool

	mu       sync.Mutex
	next     int                   // dense index among sampled ops
	nextDone int                   // next completion index to release
	done     map[int]history.Event // held-back out-of-order completions
}

// Keep decides the two sampling coins for one op; what it skips is
// counted. Flushes touch no key and are invisible to every check; they are
// never recorded (and the indices stay dense without them).
func (s *sink) Keep(op kite.Op) bool {
	if !s.sampled || op.Code == kite.OpFlush || !s.a.keySampled(op.Key) {
		s.a.skipped.Add(1)
		return false
	}
	return true
}

// Invoke assigns a sampled op the next dense index (the token) and emits
// its invoke record.
func (s *sink) Invoke(e history.Event) int {
	s.mu.Lock()
	e.Session, e.Index = s.id, s.next
	s.next++
	s.mu.Unlock()
	s.a.sampled.Add(1)
	select {
	case s.a.ch <- streamMsg{invoke: true, e: e}:
	default:
		s.a.dropped.Add(1)
	}
	return e.Index
}

// Complete releases completions in index order.
func (s *sink) Complete(idx int, e history.Event) {
	e.Session, e.Index = s.id, idx
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done == nil {
		s.done = make(map[int]history.Event)
	}
	s.done[idx] = e
	for {
		next, ok := s.done[s.nextDone]
		if !ok {
			return
		}
		delete(s.done, s.nextDone)
		s.nextDone++
		s.send(next)
	}
}

// send delivers one completion record, blocking on stream backpressure.
// After Close every completion drops (counted); because the drop condition
// is monotonic, dropped completions are always a suffix of the session's
// stream — the checker never sees an index gap.
func (s *sink) send(e history.Event) {
	select {
	case <-s.a.stop:
		s.a.dropped.Add(1)
		return
	default:
	}
	select {
	case s.a.ch <- streamMsg{e: e}:
	case <-s.a.stop:
		s.a.dropped.Add(1)
	}
}
