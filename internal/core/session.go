package core

import (
	"time"

	"kite/internal/es"
	"kite/internal/kvs"
	"kite/internal/membership"
	"kite/internal/proto"
)

// Session is the unit of ordering in Kite: requests submitted to a session
// appear to take effect in submission order (session order, §2.1). Each
// session is owned by exactly one worker, so its state needs no locks; the
// only cross-goroutine handoff is the submit channel.
type Session struct {
	node *Node
	w    *Worker
	idx  int

	// tracker ledgers this session's relaxed writes awaiting full
	// acknowledgement — the release barrier's input.
	tracker *es.Tracker

	// queue holds admitted-but-unissued requests in session order.
	queue fifo[*Request]
	// head is the blocking operation in flight (nil if none). Relaxed
	// writes do not block; releases/acquires/RMWs and slow-path relaxed
	// accesses do.
	head blockingOp
	// headID is the op id head was issued under: replies carrying it route
	// to head (Worker.dispatchReply).
	headID uint64
	// throttled marks the session as waiting for write acks (flow
	// control when tracker.Len() exceeds MaxPendingWrites).
	throttled bool
	inRunq    bool
	opSeq     uint64

	// ops stores the session's blocking ops, one of each kind, reused in
	// place rather than allocated per operation. A session runs at most one
	// at a time (head), and a completed op is referenced by nothing: it is
	// no longer head, so no reply reaches it, and any message it staged
	// aliasing its buffers was flushed before a reply could complete it.
	ops struct {
		rel   releaseOp
		rd    readOp
		rmw   rmwOp
		wr    slowWriteOp
		flush flushOp
	}
}

// blockingOp is the in-flight head operation of a session: replies carrying
// its op id route to onMessage, it completes request(), ops that wait on
// the release barrier react to tracker updates, and its quorum rounds —
// only a session head runs any — are retransmitted and refit by the worker
// (round.go). onDeadline carries only the decisions an op takes on a timer
// that is not a resend: the release barrier's timeout and the Paxos
// backoff retry and forced restart.
//
// onMessage takes the reply by value: it is an interface call, so a pointer
// argument would move every caller's reply (the loopback ones included) to
// the heap, one allocation per reply; copying a Message costs less.
type blockingOp interface {
	onMessage(w *Worker, m proto.Message)
	onDeadline(w *Worker, now time.Time)
	nextDeadline() time.Time
	request() *Request
	onTrackerUpdate(w *Worker)
	// rounds returns the records of the op's quorum rounds (nil-padded).
	rounds() [2]*round
	// resolve acts on where the op's rounds stand — the decision its reply
	// path makes after folding a reply, re-run after a refit.
	resolve(w *Worker)
}

func newSession(nd *Node, w *Worker, idx int) *Session {
	return &Session{node: nd, w: w, idx: idx, tracker: es.NewTrackerMask(nd.full())}
}

// Index returns the session's node-local index.
func (s *Session) Index() int { return s.idx }

// Node returns the owning node's id.
func (s *Session) Node() uint8 { return s.node.ID }

// Submit hands a request to the session's worker. It is the only Session
// method safe to call from outside the worker goroutine; it may block when
// the worker's admission queue is full (client backpressure). Requests on
// one session must be submitted from one goroutine at a time — a session is
// a single logical thread of control.
func (s *Session) Submit(r *Request) {
	r.sess = s
	// Validate payload sizes at the submission boundary: every backend
	// rejects oversized values with the same ErrValueTooLong instead of the
	// store silently truncating them mid-protocol.
	if len(r.Val) > kvs.MaxValueLen || len(r.Expected) > kvs.MaxValueLen {
		s.complete(r, ErrValueTooLong)
		return
	}
	if r.Key == membership.ConfigKey && s != s.node.admin {
		// The config key's value IS the group's membership; only the
		// node's own reconfiguration CAS may touch it.
		s.complete(r, ErrReservedKey)
		return
	}
	if s.node.stopped.Load() || s.node.removed.Load() {
		s.complete(r, ErrStopped)
		return
	}
	s.w.reqCh <- r
	// Close the submit/stop race: if the node stopped between the check
	// above and the send, the workers may already have drained reqCh and
	// exited, leaving r (and any other late submissions) orphaned in the
	// buffer with Done callbacks that would never fire. Re-checking after
	// the send and draining on the submitter's goroutine guarantees every
	// request is completed exactly once — either by a live worker, or by
	// a late submitter's drain with ErrStopped (channel receive makes the
	// two mutually exclusive per request). First observed as a hang in
	// StopNode/RestartNode under full client load (the recovery study).
	if s.node.stopped.Load() || s.node.removed.Load() {
		s.w.drainSubmitted()
	}
}

// complete finishes a request: fills completion counters and fires Done.
// It is the request's last touch inside core — Done may recycle r at once,
// so no caller reads or writes r after complete returns (DESIGN.md
// "Request lifecycle").
func (s *Session) complete(r *Request, err error) {
	r.Err = err
	s.node.completed[r.Code].Add(1)
	if r.Done != nil {
		r.Done(r)
	}
}

// unblock clears the head op after its completion and reschedules.
func (s *Session) unblock() {
	s.head = nil
	s.w.enqueueRun(s)
}
