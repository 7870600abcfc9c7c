package main

import (
	"context"
	"fmt"
	"time"

	"kite"
	"kite/benchmark/gen"
	"kite/internal/history"
	"kite/internal/verifier"
)

// verifyReport is the outcome of the correctness gate that closes every run.
type verifyReport struct {
	OK bool `json:"ok"`
	// The recorded tail: the workload's own mix, closed loop, unique values
	// on fresh keys, judged by internal/verifier (read validity, session
	// order, release consistency, atomic sync ops, RMW atomicity).
	TailEvents     int      `json:"tail_events"`
	TailViolations []string `json:"tail_violations,omitempty"`
	// FAA conservation over the whole run (warm, sat, paced and tail): every
	// counter, read back by an acquire, holds exactly the increments that
	// were acknowledged (plus at most those that failed, whose fate is
	// unknown).
	FAAAcked    uint64   `json:"faa_acked"`
	CounterSum  uint64   `json:"counter_sum"`
	FAAMismatch []string `json:"faa_mismatch,omitempty"`
}

// recordedTail drives dur of the workload's mix through history-recording
// wrappers and has the verifier judge the recording.
func recordedTail(w *workload, dep *deployment, drivers []*driver, seed uint64, dur time.Duration, rep *verifyReport) {
	log := history.New()
	for _, d := range drivers {
		for s := range d.sess {
			g := d.id*sessionsPerDriver + s
			d.sess[s] = log.Wrap(dep.sessions[g])
			d.streams[s] = gen.Stream(w.verifySpec(), seed, g, streamLen)
			d.pos[s] = 0
		}
	}
	start := drivers[0].now() + int64(2*time.Millisecond)
	p := &phase{start: start, end: start + int64(dur), tail: true, windows: 1}
	res, _ := runPhase(drivers, p, nil) // a closed loop: nothing to fail
	for _, d := range drivers {
		for s := range d.sess {
			d.sess[s] = dep.sessions[d.id*sessionsPerDriver+s]
		}
	}
	rec := log.Snapshot()
	rep.TailEvents = len(rec.Events)
	if res.failed > 0 {
		rep.TailViolations = append(rep.TailViolations, fmt.Sprintf("%d of %d tail ops failed or never completed", res.failed, res.attempted))
	}
	if r := verifier.Check(rec); !r.OK() {
		rep.TailViolations = append(rep.TailViolations, r.String())
	}
}

// faaConservation reads every counter back with an acquire and compares it
// with the drivers' ledgers.
func faaConservation(s kite.Session, drivers []*driver, rep *verifyReport) {
	check := func(base uint64, ledgerOf func(*driver) *ledger) {
		ops := make([]kite.Op, numCounters)
		for i := range ops {
			ops[i] = kite.AcquireOp(base + uint64(i))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		results, err := s.DoBatch(ctx, ops)
		if err != nil {
			rep.FAAMismatch = append(rep.FAAMismatch, fmt.Sprintf("reading counters at %#x: %v", base, err))
			return
		}
		for i, r := range results {
			var lo, maybe uint64
			for _, d := range drivers {
				l := ledgerOf(d)
				lo += uint64(l.ok[i])
				maybe += uint64(l.failed[i])
			}
			got := r.Uint64()
			rep.FAAAcked += lo
			rep.CounterSum += got
			if (got < lo || got > lo+maybe) && len(rep.FAAMismatch) < 8 {
				rep.FAAMismatch = append(rep.FAAMismatch, fmt.Sprintf(
					"counter %#x holds %d; %d increments acknowledged, %d failed", base+uint64(i), got, lo, maybe))
			}
		}
	}
	check(counterBase, func(d *driver) *ledger { return &d.faa })
	check(verifyCounterBase, func(d *driver) *ledger { return &d.tailFAA })
}
