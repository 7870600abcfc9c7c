// Package bench is the measurement harness that regenerates every figure of
// the paper's evaluation (§8). It is built from four shared pieces: one load
// spec (Load), one windowed closed-loop driver (drive) that every Kite, ZAB
// and Derecho run goes through, one measurement window (measure), and one
// sampled-timeline runner with scheduled actions (timeline) behind the
// failure, recovery and reconfiguration studies. The lock-free data
// structure workloads of §8.3 share the measurement window but drive their
// structures synchronously.
//
// Workload mix semantics follow §8.1 exactly: the write ratio counts RMWs,
// releases and relaxed writes; the synchronisation percentage applies to the
// non-RMW accesses (e.g. "60% write ratio, 50% sync, 50% RMWs" = 50% RMWs,
// 5% writes, 5% releases, 20% reads, 20% acquires).
package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/internal/audit"
	"kite/sharded"
)

// Result is one measured throughput point.
type Result struct {
	Name     string
	Ops      uint64
	Duration time.Duration
	// Extra carries the online auditor's coverage counters (audit_* keys).
	Extra map[string]uint64
}

// Mreqs returns throughput in million requests per second (the paper's
// unit).
func (r Result) Mreqs() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

func (r Result) String() string {
	return fmt.Sprintf("%-28s %8.3f mreqs (%d ops in %v)", r.Name, r.Mreqs(), r.Ops, r.Duration.Round(time.Millisecond))
}

// Mix is an operation mix in the paper's terms.
type Mix struct {
	WriteRatio float64 // fraction of ops that write (incl. RMWs)
	SyncFrac   float64 // fraction of non-RMW accesses that synchronise
	RMWFrac    float64 // fraction of all ops that are RMWs (subset of writes)
}

// thresholds precomputes cumulative probabilities for the mix.
type thresholds struct {
	rmw, release, write, acquire float64
}

func (m Mix) thresholds() thresholds {
	w := m.WriteRatio - m.RMWFrac // non-RMW writes
	if w < 0 {
		w = 0
	}
	rel := w * m.SyncFrac
	reads := 1 - m.WriteRatio
	if reads < 0 {
		reads = 0
	}
	acq := reads * m.SyncFrac
	return thresholds{
		rmw:     m.RMWFrac,
		release: m.RMWFrac + rel,
		write:   m.RMWFrac + w,
		acquire: m.RMWFrac + w + acq,
	}
}

func (t thresholds) pick(r float64) kite.OpCode {
	switch {
	case r < t.rmw:
		return kite.OpFAA
	case r < t.release:
		return kite.OpRelease
	case r < t.write:
		return kite.OpWrite
	case r < t.acquire:
		return kite.OpAcquire
	default:
		return kite.OpRead
	}
}

// Load is the one load spec every study drives: Mix over a uniform range of
// Keys value keys, Window outstanding operations per driven session, and a
// Warmup before the Measure window. FAAs go to a counter range of the same
// width disjoint from the value keys, [Keys, 2·Keys): a counter holds an
// 8-byte integer, and an FAA on a written key would turn its value into
// one that collides with other writers' (the audit's unique-values premise).
type Load struct {
	Mix     Mix
	Keys    uint64 // value-key range (paper: 1M)
	Window  int    // outstanding async ops per session
	Warmup  time.Duration
	Measure time.Duration // counted window; a timeline run's sampled span
}

func (l *Load) defaults() {
	if l.Keys == 0 {
		l.Keys = 1 << 20
	}
	if l.Window == 0 {
		l.Window = 8
	}
	if l.Warmup == 0 {
		l.Warmup = 100 * time.Millisecond
	}
	if l.Measure == 0 {
		l.Measure = 500 * time.Millisecond
	}
}

// valLen is the written value size (the paper's 32 B).
const valLen = 32

// drainLimit bounds a stopped driver's wait for its outstanding operations:
// the ZAB and Derecho baselines have no retransmission, so a lost message
// strands its completion and must not wedge the harness.
const drainLimit = 2 * time.Second

// issuer is how a driver starts operations. async starts one and calls cb
// exactly once when it completes — the shape of kite.Session.DoAsync, so a
// Kite session plugs in as itself and the ZAB and Derecho baselines through
// a few-line adapter. local, when set, serves the operations it accepts
// synchronously (ZAB's local reads) and reports whether it did: they take
// no callback and no window slot, and are not timed.
type issuer struct {
	async func(op kite.Op, cb func(kite.Result))
	local func(op kite.Op) bool
}

// completion is one finished operation as a driver's callback sees it.
type completion struct {
	code kite.OpCode
	err  error
	lat  time.Duration // issue to completion callback, when timed
}

// extras are the per-op costs a driver pays only for the study that needs
// them: two clock reads (about half the driver's own per-op cost) and a
// value allocation.
type extras struct {
	timed  bool // measure each op's latency (the latency study)
	unique bool // stamp written values uniquely (audited runs)
}

// drive is the one windowed closed-loop driver: it keeps l.Window operations
// drawn from l.Mix outstanding through issue, a fresh one issued as each
// completes, and hands every completion to done on the driver's goroutine
// (so done may keep per-driver state without locks). It returns once stop
// closes or done returns false, after draining its window for at most
// drainLimit. With x.unique every written value carries a per-driver
// counter, the audit checker's unique-values premise; otherwise one buffer
// is reused.
func drive(issue issuer, l Load, seed int64, x extras, stop <-chan struct{}, done func(completion) bool) {
	rng := rand.New(rand.NewSource(seed))
	th := l.Mix.thresholds()
	val := make([]byte, valLen)
	rng.Read(val)
	var stamp uint64

	slots := make(chan completion, l.Window)
	inflight := 0
	for live := true; live; {
		select {
		case <-stop:
			live = false
			continue
		default:
		}
		op := kite.Op{Code: th.pick(rng.Float64()), Key: rng.Uint64() % l.Keys}
		switch op.Code {
		case kite.OpFAA:
			op.Key += l.Keys
			op.Delta = 1
		case kite.OpWrite, kite.OpRelease:
			op.Value = val
			if x.unique {
				stamp++
				op.Value = bytes.Clone(val)
				binary.LittleEndian.PutUint64(op.Value, stamp)
			}
		}
		if issue.local != nil && issue.local(op) {
			live = done(completion{code: op.Code})
			continue
		}
		// A full window waits for one completion before issuing; only
		// asynchronous operations wait, as local ones take no slot.
		if inflight == l.Window {
			select {
			case c := <-slots:
				inflight--
				if live = done(c); !live {
					continue
				}
			case <-stop:
				live = false
				continue
			}
		}
		code := op.Code
		var issued time.Time
		if x.timed {
			issued = time.Now()
		}
		issue.async(op, func(r kite.Result) {
			c := completion{code: code, err: r.Err}
			if x.timed {
				c.lat = time.Since(issued)
			}
			slots <- c
		})
		inflight++
	}
	deadline := time.After(drainLimit)
	for ; inflight > 0; inflight-- {
		select {
		case <-slots:
		case <-deadline:
			return
		}
	}
}

// measure is the one measurement window: l.Warmup, then l.Measure with
// counting switched on through set. It returns the counted window's length.
func measure(l Load, set func(on bool)) time.Duration {
	time.Sleep(l.Warmup)
	set(true)
	start := time.Now()
	time.Sleep(l.Measure)
	set(false)
	return time.Since(start)
}

// runLoad drives every issuer under l through one measurement window and
// hands each successful completion inside it to record, with the index of
// the driver it came from, on that driver's goroutine. It returns the
// window's length once every driver has wound down.
func runLoad(issuers []issuer, l Load, x extras, record func(driver int, c completion)) time.Duration {
	var counting atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, issue := range issuers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(issue, l, int64(i), x, stop, func(c completion) bool {
				if c.err == nil && counting.Load() {
					record(i, c)
				}
				return true
			})
		}()
	}
	elapsed := measure(l, counting.Store)
	close(stop)
	wg.Wait()
	return elapsed
}

// throughput counts runLoad's completions.
func throughput(issuers []issuer, l Load, x extras) Result {
	counts := make([]uint64, len(issuers))
	d := runLoad(issuers, l, x, func(i int, _ completion) { counts[i]++ })
	res := Result{Duration: d}
	for _, n := range counts {
		res.Ops += n
	}
	return res
}

// deployment is what the drivers need of kite.Cluster and sharded.Cluster.
type deployment interface {
	Nodes() int
	SessionsPerNode() int
	Session(node, sess int) kite.Session
}

// sessionsOf opens every session of every node of d.
func sessionsOf(d deployment) []kite.Session {
	var out []kite.Session
	for n := range d.Nodes() {
		for si := range d.SessionsPerNode() {
			out = append(out, d.Session(n, si))
		}
	}
	return out
}

func issuersOf(sessions []kite.Session) []issuer {
	out := make([]issuer, len(sessions))
	for i, s := range sessions {
		out[i] = issuer{async: s.DoAsync}
	}
	return out
}

// prefill writes n keys (wrapping at keys) through s, bounding the
// outstanding writes, then fences them, so every replica holds the whole
// prefilled store before the load starts: a recovery or reconfiguration
// sweep has a real store to move, and the latency study's acquires find
// written keys the local-acquire fast path can serve (a never-written key
// reads back empty, which the fast path never serves).
func prefill(s kite.Session, n int, keys uint64) error {
	var pending sync.WaitGroup
	for i := range n {
		pending.Add(1)
		val := []byte(fmt.Sprintf("prefill-%d", i))
		s.DoAsync(kite.WriteOp(uint64(i)%keys, val), func(kite.Result) { pending.Done() })
		if i%1024 == 1023 {
			pending.Wait()
		}
	}
	pending.Wait()
	_, err := s.Do(context.Background(), kite.FlushOp())
	return err
}

// KiteOpts parameterises a Kite throughput run.
type KiteOpts struct {
	Name    string
	Options kite.Options // in-process deployment
	// Groups > 1 shards the deployment: Groups independent replica groups
	// of Options.Nodes each behind sharded sessions (the -groups knob of
	// kite-bench).
	Groups int
	Load
	// AuditSample > 0 rides the internal/audit online verifier on every
	// driven session, sampling keys at this rate (1 = every key) — the
	// perf run doubles as a correctness run. Coverage counters land in
	// Result.Extra (audit_* keys) and any reported violation fails the
	// run. Audited drivers write per-op unique values.
	AuditSample float64
}

// RunKite drives the mixed workload on every session of an in-process
// deployment and measures completed operations per second across them.
func RunKite(o KiteOpts) (Result, error) {
	o.defaults()
	var sessions []kite.Session
	if o.Groups > 1 {
		c, err := sharded.NewCluster(o.Groups, o.Options)
		if err != nil {
			return Result{}, err
		}
		defer c.Close()
		sessions = sessionsOf(c)
		// Sharded sessions run a pump goroutine each; retire them before
		// the groups stop (defers run LIFO).
		owned := sessions
		defer func() {
			for _, s := range owned {
				s.Close()
			}
		}()
	} else {
		c, err := kite.NewCluster(o.Options)
		if err != nil {
			return Result{}, err
		}
		defer c.Close()
		sessions = sessionsOf(c)
	}

	var aud *audit.Auditor
	if o.AuditSample > 0 {
		aud = audit.New(audit.Config{KeyRate: o.AuditSample})
		for i := range sessions {
			sessions[i] = aud.Wrap(sessions[i])
		}
	}
	res := throughput(issuersOf(sessions), o.Load, extras{unique: aud != nil})
	res.Name = o.Name
	if aud != nil {
		aud.Close()
		sum := aud.Summary()
		st := sum.Stats
		res.Extra = map[string]uint64{
			"audit_sampled": st.SampledOps, "audit_skipped": st.SkippedOps,
			"audit_judged": st.JudgedEvents, "audit_reads": st.CheckedReads,
			"audit_dropped": st.DroppedEvents, "audit_evictions": st.Evictions,
		}
		if !sum.Report.OK() {
			return res, fmt.Errorf("online audit (%s): %s", o.Name, sum.Report.String())
		}
	}
	return res, nil
}
