package audit

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/internal/history"
	"kite/internal/verifier"
)

// Config tunes an Auditor. The zero value audits everything with a 64k
// event budget — see OPERATIONS.md "Running a standing audit" for sizing.
type Config struct {
	// KeyRate is the per-key sampling probability in (0,1]; 0 means 1.
	// The coin is a deterministic salted hash, so one key is sampled by
	// every wrapped session or by none.
	KeyRate float64
	// SessionRate is the default per-session sampling probability used by
	// Wrap in (0,1]; 0 means 1. WrapRate overrides it per session class.
	SessionRate float64
	// K is the k-atomicity bound (min/default 1).
	K int
	// Grace is how far the judging watermark trails the present; sampled
	// completions older than Grace are judged. Default 250ms.
	Grace time.Duration
	// MaxEvents is the hard memory budget: judged events retained in the
	// checker's indexes. Oldest evict beyond it. Default 65536.
	MaxEvents int
	// Buffer is the stream channel capacity; invoke records that find it
	// full are dropped (and counted) rather than stalling the workload.
	// Default 16384.
	Buffer int
	// Interval is the seal cadence. Default 50ms.
	Interval time.Duration
	// Seed salts the sampling coins.
	Seed int64
}

func (c *Config) defaults() {
	if c.KeyRate <= 0 || c.KeyRate > 1 {
		c.KeyRate = 1
	}
	if c.SessionRate <= 0 || c.SessionRate > 1 {
		c.SessionRate = 1
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.Grace <= 0 {
		c.Grace = 250 * time.Millisecond
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 16
	}
	if c.Buffer <= 0 {
		c.Buffer = 1 << 14
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
}

// Stats is the audit coverage ledger: how much of the live workload the
// auditor saw, judged, and had to give up.
type Stats struct {
	// SampledOps: operations recorded (both records delivered unless
	// dropped).
	SampledOps uint64 `json:"sampled_ops"`
	// SkippedOps: operations seen by a wrapped session but not sampled.
	SkippedOps uint64 `json:"skipped_ops"`
	// DroppedEvents: records lost to stream backpressure (the op's
	// completion is suppressed with its invoke, keeping the stream
	// coherent).
	DroppedEvents uint64 `json:"dropped_events"`
	// JudgedEvents / CheckedReads: events the sealed watermark passed;
	// reads that ran the full check set (the audit's "checked windows").
	JudgedEvents uint64 `json:"judged_events"`
	CheckedReads uint64 `json:"checked_reads"`
	// CensusSkips: judgments that gave up value-census checks after a
	// deferral expired (e.g. the matching write's completion was dropped).
	CensusSkips uint64 `json:"census_skips"`
	// Evictions / Retained: memory-budget evictions and current residency.
	Evictions uint64 `json:"evictions"`
	Retained  uint64 `json:"retained"`
}

// Summary bundles coverage and verdicts for reports (chaos, bench, CLI).
type Summary struct {
	Stats  Stats            `json:"stats"`
	Report *verifier.Report `json:"report"`
}

// Auditor owns the sampling stream and the incremental checker. Create
// with New, wrap live sessions with Wrap/WrapRate, read Report/Stats at
// any time, Close when done (Close drains and seals everything).
type Auditor struct {
	cfg Config

	ch   chan streamMsg
	stop chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	ck *verifier.Checker

	nsess   int64
	sampled atomic.Uint64
	skipped atomic.Uint64
	dropped atomic.Uint64
}

type streamMsg struct {
	invoke bool
	e      history.Event
}

// New starts an auditor and its pump goroutine.
func New(cfg Config) *Auditor {
	a := newAuditor(cfg)
	a.wg.Add(1)
	go a.pump()
	return a
}

// newAuditor builds an auditor without its pump; tests read the stream.
func newAuditor(cfg Config) *Auditor {
	cfg.defaults()
	return &Auditor{
		cfg:  cfg,
		ch:   make(chan streamMsg, cfg.Buffer),
		stop: make(chan struct{}),
		ck: verifier.NewChecker(verifier.CheckerConfig{
			K:          cfg.K,
			Partial:    true,
			MaxEvents:  cfg.MaxEvents,
			DeferBound: int64(4 * cfg.Grace),
		}),
	}
}

// keySampled is the deterministic per-key coin: a salted splitmix64 hash
// mapped to [0,1) against KeyRate. Every wrapped session agrees on it.
func (a *Auditor) keySampled(key uint64) bool {
	if a.cfg.KeyRate >= 1 {
		return true
	}
	return coin(mix(key^uint64(a.cfg.Seed)^0x9e3779b97f4a7c15)) < a.cfg.KeyRate
}

// coin maps a hash to [0,1).
func coin(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// mix is splitmix64's finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Wrap returns a recording session around inner that feeds this auditor
// alone, at the configured SessionRate. The wrapper carries inner's
// single-logical-thread contract and records nothing when the session's
// coin came up unsampled.
func (a *Auditor) Wrap(inner kite.Session) kite.Session {
	return a.WrapRate(inner, a.cfg.SessionRate)
}

// WrapRate is Wrap with a per-session-class sampling rate: audit 100% of a
// canary class and 1% of bulk traffic by wrapping them at different rates.
func (a *Auditor) WrapRate(inner kite.Session, rate float64) kite.Session {
	return history.Record(inner, a.Sink(rate))
}

// Sink registers a fresh recording session sampled at rate and returns the
// sink that streams its sampled ops — for a history.Record that also feeds
// other sinks (the chaos runner records into a history.Log alongside).
func (a *Auditor) Sink(rate float64) history.Sink {
	a.mu.Lock()
	id := a.nsess
	a.nsess++
	a.mu.Unlock()
	sampled := rate >= 1 || coin(mix(uint64(id)^uint64(a.cfg.Seed)^0x2545f4914f6cdd1d)) < rate
	return &sink{a: a, id: int(id), sampled: sampled}
}

// pump is the single consumer: it feeds the checker and seals a trailing
// watermark on a ticker. All checker access happens under a.mu so Report
// and Stats can snapshot concurrently.
func (a *Auditor) pump() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case m := <-a.ch:
			a.feed(m)
		case <-t.C:
			a.mu.Lock()
			a.ck.Seal(history.Now() - int64(a.cfg.Grace))
			a.mu.Unlock()
		case <-a.stop:
			for {
				select {
				case m := <-a.ch:
					a.feed(m)
				default:
					a.mu.Lock()
					a.ck.Seal(math.MaxInt64)
					a.mu.Unlock()
					return
				}
			}
		}
	}
}

func (a *Auditor) feed(m streamMsg) {
	a.mu.Lock()
	if m.invoke {
		a.ck.Invoke(m.e)
	} else {
		a.ck.Observe(m.e)
	}
	a.mu.Unlock()
}

// Close stops the pump after draining the stream and sealing every
// remaining judgment (deferrals blocked on never-completed records are
// judged with census checks skipped). Wrapped sessions stay usable — their
// records are dropped and counted.
func (a *Auditor) Close() {
	select {
	case <-a.stop:
		return // already closed
	default:
	}
	close(a.stop)
	a.wg.Wait()
}

// Report snapshots the current verdicts.
func (a *Auditor) Report() *verifier.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ck.Report()
}

// Stats snapshots the coverage ledger.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	ct := a.ck.Counters()
	a.mu.Unlock()
	return Stats{
		SampledOps:    a.sampled.Load(),
		SkippedOps:    a.skipped.Load(),
		DroppedEvents: a.dropped.Load(),
		JudgedEvents:  ct.Judged,
		CheckedReads:  ct.CheckedReads,
		CensusSkips:   ct.CensusSkips,
		Evictions:     ct.Evictions,
		Retained:      ct.Retained,
	}
}

// Summary bundles Stats and Report.
func (a *Auditor) Summary() *Summary {
	return &Summary{Stats: a.Stats(), Report: a.Report()}
}
