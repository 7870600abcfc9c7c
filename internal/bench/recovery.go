package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"time"

	"kite"
	"kite/internal/core"
)

// The recovery study: the failure scenario one step past Figure 9. Where
// the paper's §8.4 replica merely SLEEPS (keeping its state), this one is
// crash-stopped mid-workload, restarted empty, and rejoins through the
// anti-entropy catch-up sweep (DESIGN.md "Recovery"). Measured: the
// throughput timeline across the kill and rejoin, the catch-up duration,
// and how much state the sweep moved.

// RecoveryOpts parameterises the recovery study; Load.Measure is the
// sampled span.
type RecoveryOpts struct {
	Options kite.Options
	Load    // like Figure 9: 5% writes, 5% synchronisation
	// Prefill writes (and fences) this many keys before the run so the
	// victim's sweep has a real store to transfer, not just the warmup's
	// footprint.
	Prefill     int
	RestartNode int
	RestartAt   time.Duration // offset of the kill within the sampled span
}

// RecoveryOutcome summarises a recovery run.
type RecoveryOutcome struct {
	Timeline []TimePoint
	// Steady-state throughput before the kill, while the victim was down or
	// catching up, and after it rejoined (mreqs).
	PreRestart, Intermediate, PostRejoin float64
	// CatchupTime is the wall time from the kill to the sweep completing —
	// the victim's full serving gap.
	CatchupTime time.Duration
	// Catchup is the rejoined node's sweep statistics.
	Catchup core.CatchupStats
}

// RunRecoveryStudy kills and rejoins one replica under a steady mixed
// workload. The victim's drivers stop at their first failed op and resume —
// on fresh sessions of the new incarnation — once its catch-up completes;
// everyone else's sessions drive straight through the outage.
func RunRecoveryStudy(o RecoveryOpts) (RecoveryOutcome, error) {
	o.defaults()
	c, err := kite.NewCluster(o.Options)
	if err != nil {
		return RecoveryOutcome{}, err
	}
	defer c.Close()
	victim := o.RestartNode
	if err := prefill(c.Session((victim+1)%c.Nodes(), 0), o.Prefill, o.Keys); err != nil {
		return RecoveryOutcome{}, err
	}

	t := newTimeline(c, o.Load, c.Nodes())
	for n := range c.Nodes() {
		t.drive(n)
	}
	out := RecoveryOutcome{}
	tl, err := t.run(step{o.RestartAt, func() error {
		killed := time.Now()
		c.StopNode(victim)
		if err := c.RestartNode(victim); err != nil {
			return err
		}
		if !c.AwaitRejoin(victim, time.Minute) {
			return fmt.Errorf("victim still catching up after 1m")
		}
		out.CatchupTime = time.Since(killed)
		out.Catchup = c.NodeCatchup(victim)
		t.drive(victim)
		return nil
	}})
	if err != nil {
		return RecoveryOutcome{}, err
	}

	out.Timeline = tl
	// The outage period is every sample overlapping [kill, rejoin], so it is
	// never empty however short the catch-up.
	rejoinAt := o.RestartAt + out.CatchupTime
	var pre, mid, post []TimePoint
	for i, tp := range tl {
		var from time.Duration
		if i > 0 {
			from = tl[i-1].At
		}
		switch {
		case tp.At < o.RestartAt:
			pre = append(pre, tp)
		case from < rejoinAt:
			mid = append(mid, tp)
		case tp.At > rejoinAt+50*time.Millisecond:
			post = append(post, tp)
		}
	}
	out.PreRestart = avgTotal(pre)
	out.Intermediate = avgTotal(mid)
	out.PostRejoin = avgTotal(post)
	return out, nil
}

// RecoveryReport is the machine-readable output of FigureRecovery — the
// format committed as BENCH_1.json.
type RecoveryReport struct {
	Name          string        `json:"name"`
	Nodes         int           `json:"nodes"`
	Workers       int           `json:"workers"`
	Sessions      int           `json:"sessions_per_worker"`
	Keys          uint64        `json:"keys"`
	Prefill       int           `json:"prefill_keys"`
	Total         time.Duration `json:"total_ns"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	PreRestart    float64       `json:"pre_restart_mreqs"`
	Intermediate  float64       `json:"intermediate_mreqs"`
	PostRejoin    float64       `json:"post_rejoin_mreqs"`
	CatchupMillis float64       `json:"catchup_ms"`
	SweptItems    uint64        `json:"swept_items"`
	AppliedItems  uint64        `json:"applied_items"`
}

// FigureRecovery runs the recovery study (prefill 0 = 2^14 keys), prints
// the timeline and summary, and returns the machine-readable report.
func FigureRecovery(fc FigureConfig, prefill int) (*RecoveryReport, error) {
	opts := RecoveryOpts{
		Options:     fc.kiteOptions(),
		Load:        fc.timelineLoad(),
		Prefill:     cmp.Or(prefill, 1<<14),
		RestartNode: fc.Nodes - 1,
		RestartAt:   150 * time.Millisecond,
	}
	out, err := RunRecoveryStudy(opts)
	if err != nil {
		return nil, err
	}
	fc.printf("# Recovery study: node %d killed at %v, rejoins via catch-up\n",
		fc.Nodes-1, opts.RestartAt)
	fc.printf("%s", FormatTimeline(out.Timeline, fc.Nodes-1))
	fc.printf("\npre-restart total:   %8.3f mreqs\n", out.PreRestart)
	fc.printf("down/catching-up:    %8.3f mreqs (surviving majority keeps serving)\n", out.Intermediate)
	fc.printf("post-rejoin total:   %8.3f mreqs\n", out.PostRejoin)
	fc.printf("catch-up: %v from kill to serving; %d items swept, %d applied\n",
		out.CatchupTime.Round(time.Millisecond), out.Catchup.Pulled, out.Catchup.Applied)
	return &RecoveryReport{
		Name:          "recovery",
		Nodes:         fc.Nodes,
		Workers:       fc.Workers,
		Sessions:      fc.SessionsPerWorker,
		Keys:          fc.Keys,
		Prefill:       opts.Prefill,
		Total:         opts.Measure,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		PreRestart:    out.PreRestart,
		Intermediate:  out.Intermediate,
		PostRejoin:    out.PostRejoin,
		CatchupMillis: float64(out.CatchupTime.Microseconds()) / 1000,
		SweptItems:    out.Catchup.Pulled,
		AppliedItems:  out.Catchup.Applied,
	}, nil
}
