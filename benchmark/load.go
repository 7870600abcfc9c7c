package main

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"kite"
	"kite/benchmark/gen"
)

// The load generator. Each driver goroutine owns four sessions and runs
// either a closed loop (a fixed window of outstanding ops per session: the
// callers wait, because a Kite session is a logical thread) or an open loop
// (ops fall due on a fixed schedule whatever the system does, and each is
// timed from its due time). In steady state a driver allocates nothing:
// slots, callbacks, value buffers and sample storage are made up front.

// sample is one completed op of a recorded phase; times are nanoseconds
// since the run's epoch.
type sample struct {
	due, issue, submitted, done int64
	code                        kite.OpCode
	sess                        uint8 // global session index
	failed                      bool
}

// slot is one in-flight position. Its callback is built once; the backend
// goroutine that runs it writes done/failed and hands the slot back over the
// driver's completion channel, which orders those writes before the
// driver's reads.
type slot struct {
	sess   int // driver-local session
	op     gen.Op
	due    int64
	issue  int64
	submit int64
	done   int64
	failed bool
	cb     func(kite.Result)
}

type recMode int

const (
	recNone    recMode = iota // warm-up
	recCounts                 // completions per window (sat)
	recSamples                // every op (paced; sat when traced)
)

// phase is one timed stretch of load shared by both drivers.
type phase struct {
	start, end int64   // ns since epoch
	paced      bool    // open loop
	interval   float64 // ns between a driver's arrivals (paced)
	rec        recMode
	traced     bool // also stamp the moment DoAsync returns
	// tail marks the recorded tail: every op writes a distinct value, and
	// FAAs land on (and are booked against) the verify counter range.
	tail    bool
	windows int
}

func (p *phase) window(t int64) int {
	w := int((t - p.start) * int64(p.windows) / (p.end - p.start))
	if w >= p.windows {
		w = p.windows - 1
	}
	return w
}

// drainTimeout bounds how long a phase waits for its in-flight ops after its
// end; what is still out then counts as failed and invalidates the run.
const drainTimeout = 10 * time.Second

type driver struct {
	id    int
	epoch time.Time
	sess  [sessionsPerDriver]kite.Session
	vals  [sessionsPerDriver][]byte
	seq   [sessionsPerDriver]uint64 // unique-value counter
	// streams are cycled; pos persists across phases so successive phases
	// continue the stream instead of replaying its head.
	streams [sessionsPerDriver][]gen.Op
	pos     [sessionsPerDriver]int

	slots []slot
	free  [sessionsPerDriver][]int32
	compl chan int32

	// Per-phase results, reset by begin.
	samples   []sample
	counts    []uint64 // completions per window, by completion time
	attempted uint64
	failed    uint64
	undrained uint64
	late      uint64
	maxLate   int64

	// FAA ledgers for the conservation check, over the whole run: the
	// workload's counters and the recorded tail's.
	faa, tailFAA ledger
}

// ledger counts, per counter, the increments acknowledged and those that
// failed (and so may or may not have happened).
type ledger struct{ ok, failed [numCounters]uint32 }

func newDriver(id int, epoch time.Time, sess []kite.Session, seed uint64, sampleCap int) *driver {
	d := &driver{
		id: id, epoch: epoch,
		slots:   make([]slot, sessionsPerDriver*pacedWindow),
		compl:   make(chan int32, sessionsPerDriver*pacedWindow), // one place per slot: a callback never blocks
		samples: make([]sample, 0, sampleCap),
	}
	for s := 0; s < sessionsPerDriver; s++ {
		d.sess[s] = sess[s]
		d.vals[s] = make([]byte, valueLen)
		g := uint64(id*sessionsPerDriver + s)
		for i := 0; i < valueLen; i += 8 {
			binary.LittleEndian.PutUint64(d.vals[s][i:], (seed+1)*0x9e3779b97f4a7c15^g<<48^uint64(i))
		}
	}
	for i := range d.slots {
		sl := &d.slots[i]
		idx := int32(i)
		sl.sess = i / pacedWindow
		sl.cb = func(r kite.Result) {
			sl.done = d.now()
			sl.failed = r.Err != nil
			d.compl <- idx
		}
	}
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// begin resets the per-phase state and opens window slots per session.
func (d *driver) begin(p *phase, window int) {
	d.samples = d.samples[:0]
	d.counts = make([]uint64, p.windows)
	d.attempted, d.failed, d.undrained, d.late, d.maxLate = 0, 0, 0, 0, 0
	for s := range d.free {
		d.free[s] = d.free[s][:0]
		for k := window - 1; k >= 0; k-- {
			d.free[s] = append(d.free[s], int32(s*pacedWindow+k))
		}
	}
}

// issue submits session s's next op, due at due.
func (d *driver) issue(p *phase, s int, due, now int64) {
	n := len(d.free[s]) - 1
	sl := &d.slots[d.free[s][n]]
	d.free[s] = d.free[s][:n]
	st := d.streams[s]
	sl.op = st[d.pos[s]%len(st)]
	d.pos[s]++
	sl.due, sl.issue, sl.submit = due, now, now
	if p.tail {
		d.seq[s]++
		binary.LittleEndian.PutUint64(d.vals[s], uint64(d.id*sessionsPerDriver+s)<<56|d.seq[s])
	}
	d.attempted++
	d.sess[s].DoAsync(sl.op.Kite(d.vals[s]), sl.cb)
	if p.traced {
		sl.submit = d.now()
	}
}

// complete books a finished slot and frees it.
func (d *driver) complete(p *phase, idx int32) *slot {
	sl := &d.slots[idx]
	if sl.failed {
		d.failed++
	}
	if sl.op.Code == kite.OpFAA {
		l, base := &d.faa, uint64(counterBase)
		if p.tail {
			l, base = &d.tailFAA, verifyCounterBase
		}
		if sl.failed {
			l.failed[sl.op.Key-base]++
		} else {
			l.ok[sl.op.Key-base]++
		}
	}
	switch p.rec {
	case recCounts:
		if !sl.failed && sl.done < p.end {
			d.counts[p.window(sl.done)]++
		}
	case recSamples:
		d.samples = append(d.samples, sample{
			due: sl.due, issue: sl.issue, submitted: sl.submit, done: sl.done,
			code: sl.op.Code, sess: uint8(d.id*sessionsPerDriver + sl.sess), failed: sl.failed,
		})
	}
	d.free[sl.sess] = append(d.free[sl.sess], idx)
	return sl
}

// closed runs the closed loop: every session keeps satWindow ops outstanding
// until the phase ends, then the driver drains.
func (d *driver) closed(p *phase) {
	d.begin(p, satWindow)
	time.Sleep(time.Duration(p.start - d.now()))
	inflight := 0
	now := d.now()
	for s := range d.sess {
		for k := 0; k < satWindow; k++ {
			d.issue(p, s, now, now)
			inflight++
		}
	}
	timer := time.NewTimer(time.Duration(p.end - d.now()))
	defer timer.Stop()
	draining := false
	for inflight > 0 {
		select {
		case idx := <-d.compl:
			sl := d.complete(p, idx)
			inflight--
			if now = d.now(); now < p.end {
				d.issue(p, sl.sess, now, now)
				inflight++
			}
		case <-timer.C:
			if draining {
				d.undrained += uint64(inflight)
				return
			}
			draining = true
			timer.Reset(drainTimeout)
		}
	}
}

// open runs the open loop. Arrivals sit on a grid of tickPeriod from the
// phase's start: the driver's k-th op belongs to session k mod 4 and falls due
// at the first grid point after start + k*interval, so every tick a small
// burst is due at once. The driver sleeps from tick to tick: at each it books
// the completions that arrived (their times were taken in the callbacks) and
// issues what is due. An op is timed from its due time: the grid point, or,
// when the generator was asleep waiting for exactly that grid point, the
// moment it woke. A session holds at most pacedWindow ops in flight; while it
// is full its due ops wait in the generator without holding back the other
// sessions, and that wait counts, as does any wait behind a busy generator.
func (d *driver) open(p *phase) error {
	d.begin(p, pacedWindow)
	tk, err := newTicker(d.now, p.start)
	if err != nil {
		return err
	}
	defer tk.close()
	var (
		nextK    [sessionsPerDriver]int64
		capped   [sessionsPerDriver]bool
		freedAt  [sessionsPerDriver]int64
		inflight int
	)
	tick := int64(tickPeriod)
	dueOf := func(k int64) int64 { return p.start + (int64(float64(k)*p.interval)/tick+1)*tick }
	for s := range nextK {
		nextK[s] = int64(s)
	}
	drainBy := p.end + int64(drainTimeout)
	slept := d.now()
	for {
		if err := tk.wait(); err != nil {
			return err
		}
		woke := d.now()
		for more := true; more; {
			select {
			case idx := <-d.compl:
				sl := d.complete(p, idx)
				inflight--
				freedAt[sl.sess] = sl.done
			default:
				more = false
			}
		}
		now := d.now()
		pending := false
		for s := range nextK {
			for {
				due := dueOf(nextK[s])
				if due >= p.end {
					break
				}
				pending = true
				if due > now {
					capped[s] = false
					break
				}
				if len(d.free[s]) == 0 {
					capped[s] = true // its turn comes when completions free a slot
					break
				}
				// Generator lateness: how long the op sat issuable. Time
				// spent behind a full session is the system's, not ours.
				ref := due
				if capped[s] && freedAt[s] > ref {
					ref = freedAt[s]
				}
				if l := now - ref; l > int64(lateThreshold) {
					d.late++
					if l > d.maxLate {
						d.maxLate = l
					}
				}
				if due > slept && due < woke {
					// The op fell due while the generator slept waiting for
					// this very grid point: what separates the two is the
					// timer's wake-up jitter, the kernel's and the Go
					// scheduler's and not the system's, so the op is timed
					// from the wake-up. (Lateness above is counted from the
					// grid point all the same.)
					due = woke
				}
				d.issue(p, s, due, now)
				inflight++
				nextK[s] += sessionsPerDriver
				now = d.now()
			}
		}
		slept = now
		if !pending && inflight == 0 {
			return nil
		}
		if now >= drainBy {
			d.undrained += uint64(inflight)
			return nil
		}
	}
}

// phaseResult is what both drivers measured in one phase.
type phaseResult struct {
	phase     phase
	samples   [][]sample // per driver; the drivers' own storage, valid until their next phase
	counts    []uint64   // completions per window
	attempted uint64
	failed    uint64 // errored or undrained
	undrained uint64
	late      uint64
	maxLate   int64
}

// runPhase runs p on every driver and gathers the results. pauses, when
// non-nil, is started alongside and joined before returning.
func runPhase(drivers []*driver, p *phase, pauses func(p *phase)) (phaseResult, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(drivers))
	if pauses != nil {
		wg.Add(1)
		go func() { defer wg.Done(); pauses(p) }()
	}
	for _, d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.paced {
				errs[d.id] = d.open(p)
			} else {
				d.closed(p)
			}
		}()
	}
	wg.Wait()
	res := phaseResult{phase: *p, counts: make([]uint64, p.windows)}
	for _, d := range drivers {
		res.samples = append(res.samples, d.samples)
		for w, c := range d.counts {
			res.counts[w] += c
		}
		res.attempted += d.attempted
		res.failed += d.failed + d.undrained
		res.undrained += d.undrained
		res.late += d.late
		if d.maxLate > res.maxLate {
			res.maxLate = d.maxLate
		}
	}
	return res, errors.Join(errs...)
}
