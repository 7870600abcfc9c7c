package bench

import (
	"time"

	"kite"
	"kite/internal/core"
)

// FailureOpts parameterises the §8.4 failure study: a replica sleeps for
// SleepFor in the middle of a steady mixed workload (paper: 5% writes, 5%
// synchronisation), and throughput is sampled per node over Load.Measure.
type FailureOpts struct {
	Options kite.Options
	Load
	SleepNode int
	SleepAt   time.Duration // offset of the sleep within the sampled span
	SleepFor  time.Duration // paper: 400 ms
}

// FailureOutcome summarises a failure-study run against the paper's
// qualitative claims (§8.4).
type FailureOutcome struct {
	Timeline []TimePoint
	// Steady-state throughput before the sleep, during the intermediate
	// period, and after recovery (mreqs).
	PreSleep, Intermediate, PostSleep float64
	// PerOperationalNode gives per-node throughput of the operational
	// replicas during the intermediate period (the paper observes it
	// *rises* as the sleeper's network share is released).
	PreSleepPerNode, IntermediatePerNode float64
	// SlowPath reports the victims' slow-path statistics after the run.
	SlowPath core.Stats
}

// RunFailureStudy reproduces Figure 9: the sleep is one scheduled step on
// the timeline runner.
func RunFailureStudy(o FailureOpts) (FailureOutcome, error) {
	o.defaults()
	c, err := kite.NewCluster(o.Options)
	if err != nil {
		return FailureOutcome{}, err
	}
	defer c.Close()

	t := newTimeline(c, o.Load, c.Nodes())
	for n := range c.Nodes() {
		t.drive(n)
	}
	tl, err := t.run(step{o.SleepAt, func() error {
		c.PauseNode(o.SleepNode, o.SleepFor)
		return nil
	}})
	if err != nil {
		return FailureOutcome{}, err
	}

	out := FailureOutcome{Timeline: tl}
	for n := range c.Nodes() {
		out.SlowPath.Add(c.NodeStats(n))
	}
	// Period averages: pre-sleep = samples before SleepAt; intermediate =
	// well inside the sleep; post = after wake + margin.
	var pre, mid, post []TimePoint
	for _, tp := range tl {
		switch {
		case tp.At < o.SleepAt:
			pre = append(pre, tp)
		case tp.At > o.SleepAt+o.SleepFor/4 && tp.At < o.SleepAt+o.SleepFor:
			mid = append(mid, tp)
		case tp.At > o.SleepAt+o.SleepFor+o.SleepFor/4:
			post = append(post, tp)
		}
	}
	out.PreSleep = avgTotal(pre)
	out.Intermediate = avgTotal(mid)
	out.PostSleep = avgTotal(post)
	out.PreSleepPerNode = avgPerOperational(pre, -1)
	out.IntermediatePerNode = avgPerOperational(mid, o.SleepNode)
	return out, nil
}
