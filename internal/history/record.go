package history

import (
	"context"
	"errors"
	"time"

	"kite"
)

// epoch anchors the recording clock: every recorder in the process stamps
// its events as nanosecond offsets from it, so two sinks fed by one
// recorder (or by recorders wrapped at different times) share one
// timeline.
var epoch = time.Now()

// Now reads the recording clock: monotonic nanoseconds since the process's
// recording epoch. Event.Invoke and Event.Complete are readings of it.
func Now() int64 { return int64(time.Since(epoch)) }

// A Sink receives the events of one recorded session. Keep decides first,
// from the bare op, whether the sink records it; only if some sink keeps
// an op does Record build its event — once — and hand a copy to each sink
// that kept it. A sink stamps its own Session and Index on its copy.
//
// Invoke gets the event at submission (Complete < 0) and returns a token
// that the matching Complete call carries back. Keep and Invoke are called
// in the session's submission order; completions arrive from the
// backend's goroutines, in any order.
type Sink interface {
	Keep(op kite.Op) bool
	Invoke(e Event) (tok int)
	Complete(tok int, e Event)
}

// maxSinks bounds the sinks of one recorder, so a call keeps its tokens
// inline.
const maxSinks = 4

// Record returns a recording kite.Session around inner that feeds every
// operation some sink keeps to sinks (at most maxSinks). It is
// transparent: every call is forwarded to the wrapped session, and the
// invoke/complete pair is recorded around it; an op no sink keeps costs
// no event, clone or clock read. The wrapper carries inner's
// single-logical-thread contract; convenience methods come from kite.Ops.
func Record(inner kite.Session, sinks ...Sink) kite.Session {
	if len(sinks) > maxSinks {
		panic("history: more than maxSinks sinks on one recorder")
	}
	r := &recorder{inner: inner, sinks: sinks}
	r.Ops = kite.Ops{Doer: r}
	return r
}

type recorder struct {
	kite.Ops
	inner kite.Session
	sinks []Sink
	// nbatch numbers this session's DoBatch calls; only the session's one
	// logical thread touches it.
	nbatch int
}

// call is one recorded operation in flight: its event, built once, the
// set of sinks that kept it (bit i for sink i) and each one's token.
type call struct {
	ev   Event
	kept uint8
	toks [maxSinks]int
}

// keep asks every sink whether it keeps op and returns the set that does.
func (r *recorder) keep(op kite.Op) (kept uint8) {
	for i, s := range r.sinks {
		if s.Keep(op) {
			kept |= 1 << i
		}
	}
	return kept
}

// invoke builds the event of an op the sinks in kept keep, and invokes
// them.
func (r *recorder) invoke(c *call, kept uint8, now int64, op kite.Op, batch int) {
	c.kept = kept
	c.ev = Event{
		Op: op.Code, Key: op.Key,
		Arg: cloneBytes(op.Value), Expected: cloneBytes(op.Expected), Delta: op.Delta,
		Batch: batch, Invoke: now, Complete: -1,
	}
	for i, s := range r.sinks {
		if kept&(1<<i) != 0 {
			c.toks[i] = s.Invoke(c.ev)
		}
	}
}

// end stamps the result onto the call's event.
func (c *call) end(now int64, res kite.Result) {
	c.ev.Complete = now
	c.ev.Out = cloneBytes(res.Value)
	c.ev.Swapped = res.Swapped
	if res.Err == nil {
		c.ev.Outcome = OutcomeOK
	} else {
		c.ev.Outcome = Classify(res.Err)
		c.ev.Err = res.Err.Error()
	}
}

// finish hands the completed event to every sink that kept the op.
func (r *recorder) finish(c *call) {
	for i, s := range r.sinks {
		if c.kept&(1<<i) != 0 {
			s.Complete(c.toks[i], c.ev)
		}
	}
}

// Classify sorts an operation error into the indeterminacy taxonomy: did
// the operation provably not run, or might it still have taken effect?
func Classify(err error) Outcome {
	switch {
	case errors.Is(err, kite.ErrBadOp),
		errors.Is(err, kite.ErrValueTooLong),
		errors.Is(err, kite.ErrReservedKey),
		errors.Is(err, kite.ErrSessionClosed):
		return OutcomeNever
	default:
		// ErrCanceled, ErrStopped, client timeouts, broken sessions: the
		// op may have executed (or may still be executing) server-side.
		return OutcomeMaybe
	}
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Do records one synchronous operation.
func (r *recorder) Do(ctx context.Context, op kite.Op) (kite.Result, error) {
	kept := r.keep(op)
	if kept == 0 {
		return r.inner.Do(ctx, op)
	}
	var c call
	r.invoke(&c, kept, Now(), op, -1)
	res, err := r.inner.Do(ctx, op)
	c.end(Now(), res)
	r.finish(&c)
	return res, err
}

// DoAsync records an asynchronous operation; the completion is recorded
// from the backend's callback goroutine.
func (r *recorder) DoAsync(op kite.Op, cb func(kite.Result)) {
	kept := r.keep(op)
	if kept == 0 {
		r.inner.DoAsync(op, cb)
		return
	}
	c := new(call)
	r.invoke(c, kept, Now(), op, -1)
	r.inner.DoAsync(op, func(res kite.Result) {
		c.end(Now(), res)
		r.finish(c)
		if cb != nil {
			cb(res)
		}
	})
}

// DoBatch records every kept op of the batch under one batch id. A
// rejected batch (nil results) provably executed nothing: all its events
// complete with OutcomeNever.
func (r *recorder) DoBatch(ctx context.Context, ops []kite.Op) ([]kite.Result, error) {
	if len(ops) == 0 {
		return r.inner.DoBatch(ctx, ops)
	}
	batch := r.nbatch
	r.nbatch++
	var (
		calls []call // allocated at the first kept op
		t0    int64
	)
	for i, op := range ops {
		kept := r.keep(op)
		if kept == 0 {
			continue
		}
		if calls == nil {
			calls, t0 = make([]call, len(ops)), Now()
		}
		r.invoke(&calls[i], kept, t0, op, batch)
	}
	results, err := r.inner.DoBatch(ctx, ops)
	if calls == nil {
		return results, err
	}
	t1 := Now()
	for i := range calls {
		c := &calls[i]
		if c.kept == 0 {
			continue
		}
		switch {
		case results != nil:
			c.end(t1, results[i])
		case err != nil:
			// All-or-nothing rejection: no op consumed a session slot.
			c.end(t1, kite.Result{Err: err})
			c.ev.Outcome = OutcomeNever
		default:
			c.end(t1, kite.Result{})
		}
		r.finish(c)
	}
	return results, err
}

// Close closes the wrapped session; the recorded events stay with the
// sinks.
func (r *recorder) Close() error { return r.inner.Close() }
