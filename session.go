package kite

import (
	"context"
	"sync"
	"sync/atomic"

	"kite/internal/core"
)

// clusterSession is the in-process implementation of Session: a thin
// adapter from the Op/Result model onto one worker-owned core session.
type clusterSession struct {
	Ops
	s      *core.Session
	closed atomic.Bool
}

func newClusterSession(s *core.Session) *clusterSession {
	cs := &clusterSession{s: s}
	cs.Ops = Ops{Doer: cs}
	return cs
}

// call is one in-process invocation: the core request, inline copies of the
// op's slices, and where its completion goes. Calls come from one pool, so
// a steady stream of ops allocates nothing but the Result.Value each caller
// owns. A call is recycled only once its completion has been consumed —
// inline by its Done for DoAsync, by the waiting goroutine for Do and
// DoBatch — and never after Cancel: an abandoned call may still complete
// later, so it is left to the GC (DESIGN.md "Request lifecycle").
type call struct {
	req      core.Request
	val, exp [MaxValueLen]byte
	// cb receives a DoAsync result; notify, when set, instead hands the
	// completed call to the goroutine waiting in Do or DoBatch.
	cb     func(Result)
	notify chan *call
	idx    int // position in a DoBatch
	// own is the call's Do channel, made once with the call.
	own chan *call
}

var calls sync.Pool

func init() {
	// Set here, not in calls' initializer: New binds done, which recycles
	// into calls.
	calls.New = func() any {
		c := &call{own: make(chan *call, 1)}
		c.req.Done = c.done
		return c
	}
}

// newCall takes a call from the pool and loads op into it, copying Value
// and Expected into the call's own buffers (op is validated: both fit).
func newCall(op Op) *call {
	c := calls.Get().(*call)
	r := &c.req
	r.Code, r.Key, r.Delta = core.OpCode(op.Code), op.Key, op.Delta
	r.Val, r.Expected = inline(c.val[:], op.Value), inline(c.exp[:], op.Expected)
	r.Out, r.Swapped, r.Err = nil, false, nil
	return c
}

// inline copies v into buf; empty values pass as nil, as cloneVal's do.
func inline(buf, v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	return buf[:copy(buf, v)]
}

// done is the request's Done, bound once per call. It runs on the worker
// goroutine as the request's last touch inside core.
func (c *call) done(*core.Request) {
	if c.notify != nil {
		c.notify <- c
		return
	}
	cb := c.cb
	var res Result
	if cb != nil {
		res = c.result()
	}
	c.recycle()
	if cb != nil {
		cb(res)
	}
}

func (c *call) result() Result {
	r := &c.req
	return Result{Value: cloneVal(r.Out), Swapped: r.Swapped, Err: r.Err}
}

func (c *call) recycle() {
	c.cb, c.notify, c.req.Err = nil, nil, nil
	calls.Put(c)
}

// Do executes op synchronously. With no deadline on ctx it waits as long
// as the deployment takes — the context is the only timeout mechanism. On
// ctx expiry the request is canceled: if the worker had not issued it yet
// it completes with ErrCanceled and has no effect; if it was already
// executing, it runs to completion in the background.
func (s *clusterSession) Do(ctx context.Context, op Op) (Result, error) {
	if s.closed.Load() {
		return Result{Err: ErrSessionClosed}, ErrSessionClosed
	}
	if err := ValidateOp(op); err != nil {
		return Result{Err: err}, err
	}
	c := newCall(op)
	c.notify = c.own
	s.s.Submit(&c.req)
	select {
	case <-c.own:
		res := c.result()
		c.recycle()
		return res, res.Err
	case <-ctx.Done():
		c.req.Cancel()
		// Prefer a completion that raced the cancellation. Either way the
		// call is not recycled: it was canceled.
		select {
		case <-c.own:
			res := c.result()
			return res, res.Err
		default:
		}
		err := canceledErr(ctx.Err())
		return Result{Err: err}, err
	}
}

// DoAsync submits op without waiting; cb runs on the owning worker
// goroutine and must not block.
func (s *clusterSession) DoAsync(op Op, cb func(Result)) {
	if s.closed.Load() {
		if cb != nil {
			cb(Result{Err: ErrSessionClosed})
		}
		return
	}
	if err := ValidateOp(op); err != nil {
		if cb != nil {
			cb(Result{Err: err})
		}
		return
	}
	c := newCall(op)
	c.cb = cb
	s.s.Submit(&c.req)
}

// DoBatch submits every op back-to-back — they occupy consecutive
// positions in session order — and waits for all results.
func (s *clusterSession) DoBatch(ctx context.Context, ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	// Validation is all-or-nothing before any op is submitted — the same
	// contract as the remote backend, so a malformed batch behaves
	// identically over either deployment.
	for _, op := range ops {
		if err := ValidateOp(op); err != nil {
			return nil, err
		}
	}
	done := make(chan *call, len(ops))
	pending := make([]*call, len(ops)) // nil once consumed
	for i, op := range ops {
		c := newCall(op)
		c.notify, c.idx = done, i
		pending[i] = c
		s.s.Submit(&c.req)
	}
	results := make([]Result, len(ops))
	for n := 0; n < len(ops); n++ {
		select {
		case c := <-done:
			results[c.idx] = c.result()
			pending[c.idx] = nil
			c.recycle()
		case <-ctx.Done():
			// Cancel only what has not completed: a consumed call may
			// already serve another op.
			for _, c := range pending {
				if c != nil {
					c.req.Cancel()
				}
			}
			// Drain completions that raced in; the canceled calls that
			// show up are not recycled.
			for more := true; more; {
				select {
				case c := <-done:
					results[c.idx] = c.result()
					pending[c.idx] = nil
				default:
					more = false
				}
			}
			cerr := canceledErr(ctx.Err())
			for i, c := range pending {
				if c != nil {
					results[i] = Result{Err: cerr}
				}
			}
			return results, cerr
		}
	}
	// First per-op error in batch order.
	for i := range results {
		if results[i].Err != nil {
			return results, results[i].Err
		}
	}
	return results, nil
}

// Close invalidates the handle. The underlying worker-owned session keeps
// existing — in-process sessions are a fixed node resource, not leases.
func (s *clusterSession) Close() error {
	s.closed.Store(true)
	return nil
}

func cloneVal(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}
