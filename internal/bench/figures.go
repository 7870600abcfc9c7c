package bench

import (
	"fmt"
	"io"
	"time"

	"kite"
	"kite/internal/derecho"
	"kite/internal/zab"
)

// FigureConfig scales the figure runners: Quick keeps everything small for
// CI/benchmarks; Full approaches the paper's parameters.
type FigureConfig struct {
	Nodes             int
	Workers           int
	SessionsPerWorker int
	// Groups > 1 runs the Kite series of the throughput figures (5-7)
	// over a sharded deployment (Groups replica groups of Nodes each).
	// The ZAB/Derecho baselines and the structure, failure and ablation
	// studies stay single-group.
	Groups  int
	Keys    uint64
	Warmup  time.Duration
	Measure time.Duration
	// AuditSample > 0 rides the online consistency auditor on the Kite
	// throughput runs (figures 5-7) at this per-key sampling rate; a
	// violation fails the figure (kite-bench -audit-sample).
	AuditSample float64
	Out         io.Writer
}

// DefaultFigureConfig mirrors the paper's 5-node deployment at a scale that
// runs in minutes on a laptop.
func DefaultFigureConfig(out io.Writer) FigureConfig {
	return FigureConfig{
		Nodes: 5, Workers: 4, SessionsPerWorker: 4,
		Keys: 1 << 17, Warmup: 150 * time.Millisecond, Measure: 600 * time.Millisecond,
		Out: out,
	}
}

func (fc FigureConfig) kiteOptions() kite.Options {
	return kite.Options{Nodes: fc.Nodes, Workers: fc.Workers,
		SessionsPerWorker: fc.SessionsPerWorker, Capacity: int(fc.Keys)}
}

// load is the figures' load spec for mix.
func (fc FigureConfig) load(mix Mix) Load {
	return Load{Mix: mix, Keys: fc.Keys, Warmup: fc.Warmup, Measure: fc.Measure}
}

// timelineLoad is the recovery and reconfiguration studies' load: Figure
// 9's mix sampled over a fixed 900 ms, the span their schedules need
// whatever the throughput figures' measurement window is.
func (fc FigureConfig) timelineLoad() Load {
	l := fc.load(Mix{WriteRatio: 0.05, SyncFrac: 0.05})
	l.Measure = 900 * time.Millisecond
	return l
}

// kiteMreqs measures one Kite point of figures 5-7: over Groups replica
// groups, audited at AuditSample.
func (fc FigureConfig) kiteMreqs(mix Mix) (float64, error) {
	res, err := RunKite(KiteOpts{Options: fc.kiteOptions(), Groups: fc.Groups,
		Load: fc.load(mix), AuditSample: fc.AuditSample})
	return res.Mreqs(), err
}

func (fc FigureConfig) zabMreqs(writeRatio float64) float64 {
	cfg := zab.Config{Nodes: fc.Nodes, Workers: fc.Workers,
		SessionsPerWorker: fc.SessionsPerWorker, KVSCapacity: int(fc.Keys)}
	return RunZab(ZabOpts{Config: cfg, WriteRatio: writeRatio, Keys: fc.Keys,
		Warmup: fc.Warmup, Measure: fc.Measure}).Mreqs()
}

func (fc FigureConfig) printf(format string, args ...any) {
	fmt.Fprintf(fc.Out, format, args...)
}

// Figure5 reproduces "Throughput while varying write ratio" (§8.1): ES, ABD,
// Paxos and Kite (5% sync) as Kite protocol configurations, plus ZAB.
func Figure5(fc FigureConfig, writeRatios []float64) error {
	if len(writeRatios) == 0 {
		writeRatios = []float64{0.01, 0.05, 0.20, 0.50, 1.00}
	}
	fc.printf("# Figure 5: throughput (mreqs) vs write ratio, %d nodes\n", fc.Nodes)
	fc.printf("%-8s %10s %10s %10s %10s %10s\n", "write%", "ES", "Kite-5%", "ABD", "Paxos", "ZAB")
	for _, w := range writeRatios {
		var row [5]float64
		for i, mix := range []Mix{
			{WriteRatio: w},                            // ES: all relaxed
			{WriteRatio: w, SyncFrac: 0.05},            // Kite, 5% sync
			{WriteRatio: w, SyncFrac: 1.0},             // ABD: all sync
			{WriteRatio: w, SyncFrac: 1.0, RMWFrac: w}, // Paxos writes + ABD reads
		} {
			var err error
			if row[i], err = fc.kiteMreqs(mix); err != nil {
				return err
			}
		}
		row[4] = fc.zabMreqs(w)
		fc.printf("%-8.0f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			w*100, row[0], row[1], row[2], row[3], row[4])
	}
	return nil
}

// Figure6 reproduces "Kite vs ZAB while varying synchronisation" (§8.1).
func Figure6(fc FigureConfig, writeRatios []float64) error {
	if len(writeRatios) == 0 {
		writeRatios = []float64{0.05, 0.20, 0.60, 1.00}
	}
	type series struct {
		name string
		sync float64
		rmw  float64 // fraction of the write ratio that is RMWs
	}
	ss := []series{
		{"Kite-5%s", 0.05, 0},
		{"Kite-20%s", 0.20, 0},
		{"Kite-20%s-5%r", 0.20, 0.05},
		{"Kite-50%s-50%r", 0.50, 0.50},
	}
	fc.printf("# Figure 6: Kite vs ZAB while varying synchronisation (mreqs)\n")
	fc.printf("%-8s", "write%")
	for _, s := range ss {
		fc.printf(" %14s", s.name)
	}
	fc.printf(" %10s\n", "ZAB")
	for _, w := range writeRatios {
		fc.printf("%-8.0f", w*100)
		for _, s := range ss {
			// RMWs are a subset of writes.
			mreqs, err := fc.kiteMreqs(Mix{WriteRatio: w, SyncFrac: s.sync, RMWFrac: min(s.rmw, w)})
			if err != nil {
				return err
			}
			fc.printf(" %14.3f", mreqs)
		}
		fc.printf(" %10.3f\n", fc.zabMreqs(w))
	}
	return nil
}

// Figure7 reproduces the write-only throughput study (§8.2): Kite's three
// write classes, ZAB, and both Derecho modes.
func Figure7(fc FigureConfig) error {
	fc.printf("# Figure 7: write-only throughput (mreqs)\n")
	rows := []struct {
		name string
		mix  Mix
	}{
		{"Kite-writes(ES)", Mix{WriteRatio: 1}},
		{"Kite-releases(ABD)", Mix{WriteRatio: 1, SyncFrac: 1}},
		{"Kite-RMWs(Paxos)", Mix{WriteRatio: 1, RMWFrac: 1}},
	}
	for _, r := range rows {
		mreqs, err := fc.kiteMreqs(r.mix)
		if err != nil {
			return err
		}
		fc.printf("%-22s %10.3f\n", r.name, mreqs)
	}
	fc.printf("%-22s %10.3f\n", "ZAB", fc.zabMreqs(1))
	for _, mode := range []derecho.Mode{derecho.Ordered, derecho.Unordered} {
		name := "Derecho-ordered"
		if mode == derecho.Unordered {
			name = "Derecho-unordered"
		}
		dr := RunDerecho(DerechoOpts{
			Config: derecho.Config{Nodes: fc.Nodes, Mode: mode, KVSCapacity: int(fc.Keys)},
			Keys:   fc.Keys, Warmup: fc.Warmup, Measure: fc.Measure,
		})
		fc.printf("%-22s %10.3f\n", name, dr.Mreqs())
	}
	return nil
}

// Figure8 reproduces the lock-free data structure study (§8.3): Kite,
// Kite-ideal (private structures, no conflicts) and the ZAB-ideal bound
// (ZAB at the workload's write ratio divided by its requests-per-op).
func Figure8(fc FigureConfig, structs, sessionsPerNode int) error {
	if structs == 0 {
		structs = 256
	}
	if sessionsPerNode == 0 {
		sessionsPerNode = fc.Workers * fc.SessionsPerWorker
	}
	fc.printf("# Figure 8: lock-free data structures (mops = million op-pairs/s)\n")
	fc.printf("%-8s %10s %12s %10s %10s %9s %9s\n",
		"bench", "Kite", "Kite-ideal", "ZAB-ideal", "Kite/ZAB", "reqs/op", "sync-per")
	workloads := []struct {
		name   string
		kind   StructKind
		fields int
	}{
		{"TS-4", TreiberStack, 4},
		{"TS-32", TreiberStack, 32},
		{"MSQ-4", MSQueue, 4},
		{"MSQ-32", MSQueue, 32},
		{"HML-4", HMList, 4},
	}
	for _, wl := range workloads {
		base := StructOpts{
			Kind: wl.kind, Fields: wl.fields, Options: fc.kiteOptions(),
			Structs: structs, SessionsPerNode: sessionsPerNode, WeakCAS: true,
			Warmup: fc.Warmup, Measure: fc.Measure,
		}
		shared, err := RunStructs(base)
		if err != nil {
			return err
		}
		ideal := base
		ideal.Private = true
		idealRes, err := RunStructs(ideal)
		if err != nil {
			return err
		}
		// ZAB-ideal: ZAB's mreqs at this workload's write ratio, divided by
		// the requests each structure op-pair needs (§8.3's methodology).
		zabIdeal := 0.0
		if shared.ReqsPerOp() > 0 {
			zabIdeal = fc.zabMreqs(shared.WriteRatio()) / shared.ReqsPerOp()
		}
		speedup := 0.0
		if zabIdeal > 0 {
			speedup = shared.Mops() / zabIdeal
		}
		fc.printf("%-8s %10.4f %12.4f %10.4f %9.2fx %9.1f %8.1f%%\n",
			wl.name, shared.Mops(), idealRes.Mops(), zabIdeal, speedup,
			shared.ReqsPerOp(), shared.SyncPer()*100)
	}
	return nil
}

// Figure9 reproduces the failure study (§8.4).
func Figure9(fc FigureConfig, sleepFor time.Duration) error {
	if sleepFor == 0 {
		sleepFor = 400 * time.Millisecond
	}
	l := fc.load(Mix{WriteRatio: 0.05, SyncFrac: 0.05})
	l.Measure = sleepFor*2 + 200*time.Millisecond
	out, err := RunFailureStudy(FailureOpts{
		Options: fc.kiteOptions(), Load: l,
		SleepNode: fc.Nodes - 1, SleepAt: 100 * time.Millisecond, SleepFor: sleepFor,
	})
	if err != nil {
		return err
	}
	fc.printf("# Figure 9: failure study (node %d sleeps %v)\n", fc.Nodes-1, sleepFor)
	fc.printf("%s", FormatTimeline(out.Timeline, fc.Nodes-1))
	fc.printf("\npre-sleep total:      %8.3f mreqs (per operational node %8.3f)\n",
		out.PreSleep, out.PreSleepPerNode)
	fc.printf("intermediate total:   %8.3f mreqs (per operational node %8.3f)\n",
		out.Intermediate, out.IntermediatePerNode)
	fc.printf("post-sleep total:     %8.3f mreqs\n", out.PostSleep)
	fc.printf("slow path: %d slow reads, %d slow writes, %d epoch bumps, %d slow releases\n",
		out.SlowPath.SlowReads, out.SlowPath.SlowWrites,
		out.SlowPath.EpochBumps, out.SlowPath.SlowReleases)
	return nil
}

// AblationTimeout sweeps the release timeout with a sleeping replica — the
// §8.4 trade-off between availability and performance.
func AblationTimeout(fc FigureConfig, timeouts []time.Duration) error {
	if len(timeouts) == 0 {
		timeouts = []time.Duration{200 * time.Microsecond, time.Millisecond,
			5 * time.Millisecond, 20 * time.Millisecond}
	}
	fc.printf("# Ablation: release timeout vs throughput with a sleeping replica\n")
	fc.printf("%-12s %14s %14s\n", "timeout", "healthy", "with-sleeper")
	for _, to := range timeouts {
		opts := fc.kiteOptions()
		opts.ReleaseTimeout = to
		l := fc.load(Mix{WriteRatio: 0.2, SyncFrac: 0.2})
		healthy, err := RunKite(KiteOpts{Options: opts, Load: l})
		if err != nil {
			return err
		}
		l.Measure = 500 * time.Millisecond
		out, err := RunFailureStudy(FailureOpts{
			Options: opts, Load: l, SleepNode: fc.Nodes - 1,
			SleepAt: 100 * time.Millisecond, SleepFor: 300 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		fc.printf("%-12v %14.3f %14.3f\n", to, healthy.Mreqs(), out.Intermediate)
	}
	return nil
}

// AblationFastPath prices the fast path: the same mixed workload with the
// fast path enabled vs every relaxed access forced through quorum rounds.
func AblationFastPath(fc FigureConfig) error {
	fc.printf("# Ablation: fast path on/off (mreqs)\n")
	for _, disabled := range []bool{false, true} {
		opts := fc.kiteOptions()
		opts.DisableFastPath = disabled
		res, err := RunKite(KiteOpts{Options: opts, Load: fc.load(Mix{WriteRatio: 0.05, SyncFrac: 0.05})})
		if err != nil {
			return err
		}
		name := "fast-path-on"
		if disabled {
			name = "fast-path-off"
		}
		fc.printf("%-16s %10.3f\n", name, res.Mreqs())
	}
	return nil
}
