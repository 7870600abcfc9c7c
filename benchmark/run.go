package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"kite"
	"kite/benchmark/gen"
)

// streamLen is how many ops each session's pre-generated stream holds; the
// driver cycles through it (a session replays its stream every second or two
// at saturation, far apart enough for no layer to notice).
const streamLen = 1 << 16

// runConfig is how one workload run is shaped. The four phase lengths follow
// from the single --seconds of the command line (ISSUE 12: warm 2 s, sat 8 s,
// paced 8 s and a 1 s recorded tail at --seconds 16).
type runConfig struct {
	Seed   uint64
	Warm   time.Duration
	Sat    time.Duration
	Paced  time.Duration
	Tail   time.Duration
	Trace  bool
	Probes bool
	// Guards turns the validity guards on: a run that trips one is reported
	// invalid and fails the command. The 300 ms smoke test turns them off.
	Guards  bool
	Scratch string // directory the run may write under (WAL, removed at exit)
	OutDir  string // where trace files go
}

func configFor(seconds float64) runConfig {
	s := time.Duration(seconds * float64(time.Second))
	return runConfig{
		Warm: s / 8, Sat: s / 2, Paced: s / 2, Tail: s / 16,
		Guards: true,
	}
}

// workloadReport is everything one run of one workload measured.
type workloadReport struct {
	Workload  string       `json:"workload"`
	Seed      uint64       `json:"seed"`
	Correct   bool         `json:"correct"`
	Valid     bool         `json:"valid"`
	Invalid   []string     `json:"invalid,omitempty"`
	Warnings  []string     `json:"warnings,omitempty"`
	Attempted uint64       `json:"attempted"`
	Failed    uint64       `json:"failed"`
	FailedOps float64      `json:"failed_ops_ratio"`
	EndToEnd  metricSet    `json:"end_to_end"`
	PerLayer  metricSet    `json:"per_layer"`
	Verify    verifyReport `json:"verify"`
	Phases    phasesReport `json:"phases"`
	TraceFile string       `json:"trace_file,omitempty"`
}

type phasesReport struct {
	WarmS        float64 `json:"warm_s"`
	SatS         float64 `json:"sat_s"`
	PacedS       float64 `json:"paced_s"`
	TailS        float64 `json:"tail_s"`
	PacedRate    float64 `json:"paced_rate_ops_s"`
	Windows      int     `json:"windows"`
	SatWindow    int     `json:"sat_window_per_session"`
	PacedWindow  int     `json:"paced_inflight_cap_per_session"`
	MessageDelay string  `json:"message_delay"`
}

// setUp sets the workload up repeatedly, timing each cycle from the
// constructor call until the deployment is ready to be measured — built, its
// first op completed (a release: it needs a quorum, so it proves the
// deployment serves) and every value key written once — and keeps the last
// deployment. A cycle on its own is at the mercy of the allocator (a store's
// memory comes back zeroed from the OS, or has to be cleared, at a factor of
// three in time), so there are at least three, and as many more, up to nine,
// as fit in a second. firstOp and fill are the two parts of each cycle.
func setUp(w *workload, cfg runConfig) (dep *deployment, total, firstOp, fill []float64, err error) {
	val := make([]byte, valueLen)
	for i := range val {
		val[i] = byte(cfg.Seed >> (i % 8 * 8))
	}
	begin := time.Now()
	for len(total) < 3 || (len(total) < 9 && time.Since(begin) < time.Second) {
		if dep != nil {
			dep.close()
			// Start every cycle from a collected heap, or the previous
			// deployment's garbage is collected inside the next one's timing.
			runtime.GC()
		}
		t0 := time.Now()
		if dep, err = deploy(w, cfg.Scratch); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: deploy: %w", w.Name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = dep.sessions[0].Do(ctx, kite.ReleaseOp(w.Spec.KeyBase, val))
		cancel()
		if err == nil {
			firstOp = append(firstOp, time.Since(t0).Seconds())
			err = prefill(w, dep, val)
		}
		if err != nil {
			dep.close()
			return nil, nil, nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		total = append(total, time.Since(t0).Seconds())
		fill = append(fill, total[len(total)-1]-firstOp[len(firstOp)-1])
	}
	return dep, total, firstOp, fill, nil
}

// prefill writes every value key once, so measured acquires meet keys in
// steady state: a never-written key is never served by the local-acquire
// fast path. Each driver's first session writes half the keys.
func prefill(w *workload, dep *deployment, val []byte) error {
	errs := make(chan error, numDrivers)
	for drv := 0; drv < numDrivers; drv++ {
		s := dep.sessions[drv*sessionsPerDriver]
		go func() {
			const chunk = 512
			ops := make([]kite.Op, 0, chunk)
			for k := uint64(drv); k < w.Spec.Keys; k += numDrivers {
				ops = append(ops, kite.WriteOp(w.Spec.KeyBase+k, val))
				if len(ops) == chunk || k+numDrivers >= w.Spec.Keys {
					if _, err := s.DoBatch(context.Background(), ops); err != nil {
						errs <- fmt.Errorf("prefill: %w", err)
						return
					}
					ops = ops[:0]
				}
			}
			errs <- nil
		}()
	}
	var first error
	for drv := 0; drv < numDrivers; drv++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pauser returns the fault schedule of a pause-cycle phase: the replica
// sleeps at the midpoint of every window for an eighth of it.
func pauser(w *workload, dep *deployment, now func() int64) func(*phase) {
	if !w.PauseEvery {
		return nil
	}
	return func(p *phase) {
		win := (p.end - p.start) / int64(p.windows)
		for i := 0; i < p.windows; i++ {
			at := p.start + int64(i)*win + win/2
			if d := at - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			dep.pause(w.PauseNode, time.Duration(win/8))
		}
	}
}

func newPhase(now int64, dur time.Duration, windows int) *phase {
	start := now + int64(2*time.Millisecond) // both drivers start together
	return &phase{start: start, end: start + int64(dur), windows: windows}
}

// windowThroughput is the median over windows of completed ops per second.
func windowThroughput(counts []uint64, p *phase) float64 {
	winS := float64(p.end-p.start) / float64(p.windows) / 1e9
	per := make([]float64, len(counts))
	for i, c := range counts {
		per[i] = float64(c) / winS
	}
	return median(per)
}

func countsOf(samples [][]sample, p *phase) []uint64 {
	counts := make([]uint64, p.windows)
	for _, set := range samples {
		for i := range set {
			if s := &set[i]; !s.failed && s.done < p.end {
				counts[p.window(s.done)]++
			}
		}
	}
	return counts
}

// latencyClass is one of the three gated latency classes.
var latencyClasses = []struct {
	name  string
	codes [2]kite.OpCode
}{
	{"relaxed", [2]kite.OpCode{kite.OpRead, kite.OpWrite}},
	{"sync", [2]kite.OpCode{kite.OpRelease, kite.OpAcquire}},
	{"rmw", [2]kite.OpCode{kite.OpFAA, kite.OpFAA}},
}

// pacedLatencies fills the six paced_* metrics: per window (by due time) the
// p50 and p99 of due-to-completion latency, then the median over windows.
func pacedLatencies(w *workload, res *phaseResult, out metricSet, invalid *[]string, guards bool) {
	p := &res.phase
	for _, cl := range latencyClasses {
		byWin := make([][]int64, p.windows)
		n := 0
		for _, set := range res.samples {
			for i := range set {
				s := &set[i]
				if s.failed || (s.code != cl.codes[0] && s.code != cl.codes[1]) || !w.timedHome(w.Homes[s.sess]) {
					continue
				}
				win := p.window(s.due)
				byWin[win] = append(byWin[win], s.done-s.due)
				n++
			}
		}
		var p50s, p99s []float64
		for _, lat := range byWin {
			if len(lat) == 0 {
				continue
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p50s = append(p50s, float64(percentile(lat, 0.50))/1e3)
			p99s = append(p99s, float64(percentile(lat, 0.99))/1e3)
		}
		out.layerN("paced_"+cl.name+"_p50_us", median(p50s), n)
		out.layerN("paced_"+cl.name+"_p99_us", median(p99s), n)
		if guards && n < minClassSamples {
			*invalid = append(*invalid, fmt.Sprintf("latency class %s has %d samples, fewer than %d", cl.name, n, minClassSamples))
		}
	}
}

// boundaryMetrics turns two counter readings around the sat phase, and the
// ops completed between them, into the per-layer boundary metrics.
func boundaryMetrics(a, b counters, ops float64, out metricSet) {
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	hits, falls := d(a.core.LocalAcqHits, b.core.LocalAcqHits), d(a.core.AcqFallbacks, b.core.AcqFallbacks)
	out.layer("core.local_acq_hit_ratio", ratio(hits, hits+falls))
	out.layer("core.slow_reads_per_kop", ratio(1000*d(a.core.SlowReads, b.core.SlowReads), ops))
	out.layer("core.slow_writes_per_kop", ratio(1000*d(a.core.SlowWrites, b.core.SlowWrites), ops))
	out.layer("core.slow_releases_per_kop", ratio(1000*d(a.core.SlowReleases, b.core.SlowReleases), ops))
	out.layer("core.epoch_bumps", d(a.core.EpochBumps, b.core.EpochBumps))
	syncOps := d(a.class[kite.OpRelease], b.class[kite.OpRelease]) + d(a.class[kite.OpFAA], b.class[kite.OpFAA])
	out.layer("shard.flushes_per_sync_op", ratio(d(a.class[kite.OpFlush], b.class[kite.OpFlush]), syncOps))
	msgs := d(a.sentMsgs, b.sentMsgs)
	out.layer("transport.msgs_per_op", ratio(msgs, ops))
	out.layer("transport.msgs_per_batch", ratio(msgs, d(a.sentBatches, b.sentBatches)))
	out.layer("transport.datagrams_per_syscall", ratio(d(a.batchedDatagrams, b.batchedDatagrams), d(a.batchedSyscalls, b.batchedSyscalls)))
	out.layer("transport.fallback_syscalls", d(a.fallbackSyscalls, b.fallbackSyscalls))
	out.layer("transport.dropped_full", d(a.droppedFull, b.droppedFull))
	reqs := d(a.requests, b.requests)
	out.layer("server.requests_per_op", ratio(reqs, ops))
	out.layer("server.retransmit_ratio", ratio(d(a.retransmits, b.retransmits), reqs))
	out.layer("server.dropped_replies", d(a.droppedReplies, b.droppedReplies))
	out.layer("wal.disk_bytes_per_op", ratio(d(a.walBytes, b.walBytes), ops))
}

// runWorkload runs every phase of w once and reports what it measured.
func runWorkload(w *workload, cfg runConfig) (*workloadReport, error) {
	rep := &workloadReport{
		Workload: w.Name, Seed: cfg.Seed, EndToEnd: metricSet{}, PerLayer: metricSet{},
		Phases: phasesReport{
			WarmS: cfg.Warm.Seconds(), SatS: cfg.Sat.Seconds(),
			PacedS: cfg.Paced.Seconds(), TailS: cfg.Tail.Seconds(), PacedRate: w.PacedRate,
			Windows: w.Windows, SatWindow: satWindow, PacedWindow: pacedWindow,
			MessageDelay: "none injected: in-process and loopback latency is processor time only",
		},
	}
	for _, def := range perLayer {
		rep.PerLayer.layer(def.Name, 0) // what does not apply, or was not asked for, reads 0
	}
	if cfg.Guards && runtime.NumCPU() < numDrivers {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("%d drivers (and connections) exceed nproc %d", numDrivers, runtime.NumCPU()))
	}

	dep, setups, firstOps, fills, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	closeDep := sync.OnceFunc(dep.close)
	defer closeDep()
	rep.EndToEnd.e2e("setup_s", median(setups), len(setups))

	epoch := time.Now()
	sampleCap := int(w.PacedRate/numDrivers*cfg.Paced.Seconds()*1.05) + 1024
	if cfg.Trace {
		sampleCap = max(sampleCap, 1<<20)
	}
	drivers := make([]*driver, numDrivers)
	for i := range drivers {
		drivers[i] = newDriver(i, epoch, dep.sessions[i*sessionsPerDriver:(i+1)*sessionsPerDriver], cfg.Seed, sampleCap)
		for s := range drivers[i].streams {
			drivers[i].streams[s] = gen.Stream(w.Spec, cfg.Seed, i*sessionsPerDriver+s, streamLen)
		}
	}
	now := drivers[0].now
	pauses := pauser(w, dep, now)

	runtime.GC()
	closedPhase := func(p *phase, pauses func(*phase)) phaseResult {
		res, _ := runPhase(drivers, p, pauses) // only the open loop can fail
		return res
	}
	closedPhase(newPhase(now(), cfg.Warm, 1), nil)

	// sat: the closed loop. A traced run measures the first half plain and
	// the second half with every op recorded; the difference between the two
	// halves is the tracing overhead.
	var (
		satOps    float64 // ops completed between the two counter readings
		tput      float64
		overhead  float64
		satTraced phaseResult
		ms0, ms1  runtime.MemStats
	)
	before := dep.read()
	runtime.ReadMemStats(&ms0)
	if !cfg.Trace {
		p := newPhase(now(), cfg.Sat, w.Windows)
		p.rec = recCounts
		res := closedPhase(p, pauses)
		runtime.ReadMemStats(&ms1)
		rep.Attempted, rep.Failed = res.attempted, res.failed
		satOps = float64(res.attempted - res.failed)
		tput = windowThroughput(res.counts, p)
	} else {
		half := max(w.Windows/2, 1)
		p := newPhase(now(), cfg.Sat/2, half)
		p.rec = recCounts
		plain := closedPhase(p, pauses)
		tput = windowThroughput(plain.counts, p)
		p = newPhase(now(), cfg.Sat/2, half)
		p.rec, p.traced = recSamples, true
		satTraced = closedPhase(p, pauses)
		runtime.ReadMemStats(&ms1)
		// The paced phase reuses the drivers' sample storage.
		for i, set := range satTraced.samples {
			satTraced.samples[i] = append([]sample(nil), set...)
		}
		overhead = 1 - ratio(windowThroughput(countsOf(satTraced.samples, p), p), tput)
		rep.Attempted, rep.Failed = plain.attempted+satTraced.attempted, plain.failed+satTraced.failed
		satOps = float64(rep.Attempted - rep.Failed)
	}
	after := dep.read()
	rep.EndToEnd.e2e("sat_throughput_ops_s", tput, int(satOps))
	rep.EndToEnd.e2e("alloc_bytes_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), satOps), int(satOps))

	// paced: the open loop at the workload's frozen rate.
	p := newPhase(now(), cfg.Paced, w.Windows)
	p.paced, p.rec, p.traced = true, recSamples, cfg.Trace
	p.interval = 1e9 / (w.PacedRate / numDrivers)
	cpu0 := cpuTime()
	paced, err := runPhase(drivers, p, pauses)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, fmt.Errorf("%s: paced phase: %w", w.Name, err)
	}
	rep.Attempted += paced.attempted
	rep.Failed += paced.failed
	rep.FailedOps = ratio(float64(rep.Failed), float64(rep.Attempted))
	pacedLatencies(w, &paced, rep.PerLayer, &rep.Invalid, cfg.Guards)
	rep.EndToEnd.e2e("paced_cpu_us_per_op", ratio(float64(cpu)/1e3, float64(paced.attempted-paced.failed)), int(paced.attempted))
	lateRatio := ratio(float64(paced.late), float64(paced.attempted))
	if lateRatio > maxLateRatio {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("load generator ran late on %.2f%% of paced ops (more than %.0f%%): do not trust this run's paced latencies", 100*lateRatio, 100*maxLateRatio))
	}
	if u := paced.undrained; u > 0 {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("%d paced ops never completed", u))
	}

	boundaryMetrics(before, after, satOps, rep.PerLayer)
	rep.PerLayer.layer("loadgen.late_ratio", lateRatio)
	rep.PerLayer.layer("loadgen.max_late_ms", float64(paced.maxLate)/1e6)
	rep.PerLayer.layer("loadgen.trace_overhead_ratio", overhead)
	rep.PerLayer.layer("loadgen.first_op_s", median(firstOps))
	rep.PerLayer.layer("loadgen.prefill_s", median(fills))
	var spans []span
	selfUs := map[string]float64{}
	if cfg.Trace {
		spans = traceOps(satTraced.samples, paced.samples, rep.PerLayer, selfUs)
	}

	// verify: the correctness gate.
	recordedTail(w, dep, drivers, cfg.Seed, cfg.Tail, &rep.Verify)
	faaConservation(dep.sessions[0], drivers, &rep.Verify)
	rep.Verify.OK = len(rep.Verify.TailViolations) == 0 && len(rep.Verify.FAAMismatch) == 0
	rep.Correct = rep.Verify.OK
	rep.Valid = len(rep.Invalid) == 0

	if cfg.Trace || cfg.Probes {
		// The probes want the machine to themselves.
		closeDep()
		paced.samples, satTraced.samples, drivers = nil, nil, nil
		runtime.GC()
		pr := &prober{w: w, seed: cfg.Seed, scratch: cfg.Scratch, now: now, out: rep.PerLayer, traced: cfg.Trace}
		if err := pr.runAll(); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
		}
		spans = append(spans, pr.spans...)
		for layer, ns := range pr.selfNs {
			selfUs[layer] += float64(ns) / 1e3
		}
	}
	if cfg.Trace {
		rep.TraceFile = filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
		if err := writeTrace(rep.TraceFile, spans, selfUs); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.Name, err)
		}
	}
	return rep, nil
}

// traceOps folds the recorded ops of the traced phases into per-layer self
// times (over every op) and spans (of an even sample of at most
// maxTracedOps ops, so the trace file stays a few megabytes).
func traceOps(sat, paced [][]sample, out metricSet, selfUs map[string]float64) []span {
	var (
		spans                  []span
		wait, submit, inflight int64
		n, total               int64
	)
	sets := append(sat, paced...)
	for _, set := range sets {
		total += int64(len(set))
	}
	stride := max(total/maxTracedOps, traceSampling)
	for _, set := range sets {
		for i := range set {
			s := &set[i]
			if s.failed {
				continue
			}
			w, sb, in := opSelfTimes(s)
			wait, submit, inflight = wait+w, submit+sb, inflight+in
			if n%stride == 0 {
				spans = append(spans, opSpans(s, n)...)
			}
			n++
		}
	}
	selfUs["loadgen"], selfUs["submit"], selfUs["session"] = float64(wait)/1e3, float64(submit)/1e3, float64(inflight)/1e3
	out.layer("trace.loadgen_wait_us_per_op", ratio(float64(wait)/1e3, float64(n)))
	out.layer("trace.session_submit_us_per_op", ratio(float64(submit)/1e3, float64(n)))
	out.layer("trace.session_inflight_us_per_op", ratio(float64(inflight)/1e3, float64(n)))
	return spans
}

// scratchDir makes the directory a run may write under, inside the checkout.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "kite-")
}
