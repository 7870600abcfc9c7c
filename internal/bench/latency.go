package bench

import (
	"runtime"
	"sort"
	"time"

	"kite"
)

// The latency study: per-class completion latencies under the closed-loop
// mixed workload. Throughput figures hide the asymmetry the protocol is
// built around — relaxed reads complete locally, relaxed writes after a
// local apply, while releases/acquires pay an ABD quorum and RMWs a Paxos
// round — so this figure reports p50/p99 per operation class. It is also
// the companion to the durability figure: re-run with -fig latency against
// a WAL deployment to see what group-commit adds to the write tail.

// LatencyClass summarises one operation class's distribution.
type LatencyClass struct {
	Class    string  `json:"class"`
	Count    int     `json:"count"`
	P50Micro float64 `json:"p50_us"`
	P99Micro float64 `json:"p99_us"`
}

// LatencyReport is the machine-readable output of FigureLatency.
type LatencyReport struct {
	Name       string         `json:"name"`
	Nodes      int            `json:"nodes"`
	Workers    int            `json:"workers"`
	Sessions   int            `json:"sessions_per_worker"`
	Keys       uint64         `json:"keys"`
	Measure    time.Duration  `json:"measure_ns"`
	Window     int            `json:"window"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Overall    LatencyClass   `json:"overall"`
	Classes    []LatencyClass `json:"classes"`
	// Local-acquire fast path (DESIGN.md "Local reads"): hit/fallback
	// counters summed over all replicas of the measured (fast-path) pass,
	// and the same mix re-measured with Options.DisableLocalAcquires — the
	// ABD baseline acquires paid before this PR — for the before/after
	// comparison in one report.
	LocalAcqHits    uint64         `json:"local_acq_hits"`
	AcqFallbacks    uint64         `json:"acq_fallbacks"`
	LocalAcqHitRate float64        `json:"local_acq_hit_rate"`
	Baseline        []LatencyClass `json:"baseline_classes"`
	// RelaxedMreqs is a 100%-relaxed-write throughput point at the same
	// deployment options — directly comparable to the durability figure's
	// "off" series (BENCH_3). It guards the validate broadcast's cost: the
	// batched validates that power local acquires must not tax relaxed
	// write throughput.
	RelaxedMreqs float64 `json:"relaxed_write_mreqs"`
}

// FigureLatency measures completion latencies on a mix that exercises every
// class (40% writes of which 10% RMWs, 20% of accesses synchronising). It
// runs the mix twice — once with acquires allowed to hit the local-read
// fast path, once forced onto the ABD quorum read (DisableLocalAcquires) —
// plus a 100%-relaxed throughput point, so one report shows what local
// acquires buy and what their validate broadcasts cost.
func FigureLatency(fc FigureConfig) (*LatencyReport, error) {
	o := KiteOpts{
		Name:    "latency",
		Options: fc.kiteOptions(),
		Load:    fc.load(Mix{WriteRatio: 0.40, SyncFrac: 0.20, RMWFrac: 0.10}),
	}
	o.defaults()

	baseOpts := o
	baseOpts.Options.DisableLocalAcquires = true
	baseline, err := runLatency(baseOpts)
	if err != nil {
		return nil, err
	}
	fast, err := runLatency(o)
	if err != nil {
		return nil, err
	}
	relaxed, err := RunKite(KiteOpts{Name: "latency-relaxed", Options: fc.kiteOptions(),
		Load: fc.load(Mix{WriteRatio: 1.0})})
	if err != nil {
		return nil, err
	}

	rep := &LatencyReport{
		Name:       "latency",
		Nodes:      fc.Nodes,
		Workers:    fc.Workers,
		Sessions:   fc.SessionsPerWorker,
		Keys:       fc.Keys,
		Measure:    fc.Measure,
		Window:     o.Window,
		GoMaxProcs: runtime.GOMAXPROCS(0),

		LocalAcqHits: fast.hits,
		AcqFallbacks: fast.falls,
		RelaxedMreqs: relaxed.Mreqs(),
	}
	if total := fast.hits + fast.falls; total > 0 {
		rep.LocalAcqHitRate = float64(fast.hits) / float64(total)
	}

	group := func(samples []completion) (map[kite.OpCode][]time.Duration, []time.Duration) {
		byClass := map[kite.OpCode][]time.Duration{}
		var all []time.Duration
		for _, s := range samples {
			byClass[s.code] = append(byClass[s.code], s.lat)
			all = append(all, s.lat)
		}
		return byClass, all
	}
	fastBy, fastAll := group(fast.samples)
	baseBy, baseAll := group(baseline.samples)
	rep.Overall = summarise("all", fastAll)

	classes := []struct {
		code kite.OpCode
		name string
	}{
		{kite.OpRead, "read"}, {kite.OpWrite, "write"},
		{kite.OpRelease, "release"}, {kite.OpAcquire, "acquire"},
		{kite.OpFAA, "faa"},
	}
	fc.printf("# Latency: per-class completion latency, %d nodes (closed loop, window %d)\n",
		fc.Nodes, o.Window)
	fc.printf("# local acquires: hits=%d fallbacks=%d hit-rate=%.1f%% (abd-* = DisableLocalAcquires baseline)\n",
		rep.LocalAcqHits, rep.AcqFallbacks, 100*rep.LocalAcqHitRate)
	fc.printf("%-10s %10s %12s %12s %12s %12s\n",
		"class", "count", "p50(us)", "p99(us)", "abd-p50(us)", "abd-p99(us)")
	for _, cl := range classes {
		lc := summarise(cl.name, fastBy[cl.code])
		bl := summarise(cl.name, baseBy[cl.code])
		rep.Classes = append(rep.Classes, lc)
		rep.Baseline = append(rep.Baseline, bl)
		fc.printf("%-10s %10d %12.1f %12.1f %12.1f %12.1f\n",
			lc.Class, lc.Count, lc.P50Micro, lc.P99Micro, bl.P50Micro, bl.P99Micro)
	}
	blAll := summarise("all", baseAll)
	fc.printf("%-10s %10d %12.1f %12.1f %12.1f %12.1f\n", "all",
		rep.Overall.Count, rep.Overall.P50Micro, rep.Overall.P99Micro,
		blAll.P50Micro, blAll.P99Micro)
	fc.printf("# relaxed-write throughput (validate-broadcast cost guard): %.3f mreqs\n",
		rep.RelaxedMreqs)
	return rep, nil
}

func summarise(name string, ds []time.Duration) LatencyClass {
	lc := LatencyClass{Class: name, Count: len(ds)}
	if len(ds) == 0 {
		return lc
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(ds)-1))
		return float64(ds[idx].Nanoseconds()) / 1e3
	}
	lc.P50Micro = pct(0.50)
	lc.P99Micro = pct(0.99)
	return lc
}

// latRun is one runLatency pass: the measurement window's samples plus the
// cluster-wide local-acquire hit/fallback counters at teardown.
type latRun struct {
	samples     []completion
	hits, falls uint64
}

// runLatency boots the deployment of o, prefills the whole key range so
// measured acquires face keys in steady state, and drives every session,
// keeping each measured completion's latency.
func runLatency(o KiteOpts) (latRun, error) {
	c, err := kite.NewCluster(o.Options)
	if err != nil {
		return latRun{}, err
	}
	defer c.Close()
	if err := prefill(c.Session(0, 0), int(o.Keys), o.Keys); err != nil {
		return latRun{}, err
	}
	sessions := sessionsOf(c)
	perDriver := make([][]completion, len(sessions))
	runLoad(issuersOf(sessions), o.Load, extras{timed: true}, func(i int, c completion) {
		perDriver[i] = append(perDriver[i], c)
	})

	var run latRun
	for _, ss := range perDriver {
		run.samples = append(run.samples, ss...)
	}
	for n := range c.Nodes() {
		st := c.NodeStats(n)
		run.hits += st.LocalAcqHits
		run.falls += st.AcqFallbacks
	}
	return run, nil
}
