// Command kite-bench regenerates the paper's evaluation (§8): every figure
// plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	kite-bench -fig 5              # throughput vs write ratio
//	kite-bench -fig 6              # Kite vs ZAB while varying synchronisation
//	kite-bench -fig 7              # write-only study incl. Derecho
//	kite-bench -fig 8              # lock-free data structures
//	kite-bench -fig 9              # failure study
//	kite-bench -fig recovery       # restart/rejoin study (Figure 9 extension)
//	kite-bench -fig reconfig       # live add/remove-replica study (membership)
//	kite-bench -fig timeout        # release-timeout ablation
//	kite-bench -fig fastpath       # fast-path on/off ablation
//	kite-bench -fig shard          # throughput vs replica-group count
//	kite-bench -fig durability     # WAL cost: off / group-commit / per-op fsync
//	kite-bench -fig latency        # per-class p50/p99 completion latency
//	kite-bench -fig all
//
// Scale knobs: -nodes, -workers, -sessions, -keys, -measure, -warmup.
// Sharding knobs: -groups G runs the Kite series of figures 5-7 over G
// independent replica groups of -nodes each (the structure, failure and
// ablation studies stay single-group); -fig shard sweeps the group count
// at a fixed machine total (-shard-total), and -json writes its
// machine-readable report (the format of BENCH_0.json, the committed
// baseline). Absolute numbers depend on the host; the paper-matching
// signal is the *shape*: orderings, ratios and crossovers (see
// EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"kite/internal/bench"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 5,6,7,8,9,recovery,reconfig,timeout,fastpath,shard,durability,latency,all")
		nodes      = flag.Int("nodes", 5, "replication degree (3-9)")
		groups     = flag.Int("groups", 1, "replica groups (sharded key space; figures 5-7 Kite series)")
		workers    = flag.Int("workers", 4, "worker goroutines per node")
		sessions   = flag.Int("sessions", 4, "sessions per worker")
		keys       = flag.Uint64("keys", 1<<17, "key-space size")
		measure    = flag.Duration("measure", 600*time.Millisecond, "measurement window per point")
		warmup     = flag.Duration("warmup", 150*time.Millisecond, "warmup per point")
		structs    = flag.Int("structs", 256, "data-structure instances (figure 8)")
		sleepFor   = flag.Duration("sleep", 400*time.Millisecond, "replica sleep (figure 9)")
		prefill    = flag.Int("prefill", 0, "keys prefilled before the recovery study (0: default 2^14)")
		shardTotal = flag.Int("shard-total", 4, "total machines of the shard scaling series (figure shard)")
		jsonPath   = flag.String("json", "", "write the selected figure's report as JSON to this path (shard/recovery/reconfig/durability/latency only; ignored with -fig all, where the reports would clobber each other)")
		auditRate  = flag.Float64("audit-sample", 0, "ride the online consistency auditor on the Kite throughput runs (figures 5-7), sampling keys at this rate in (0,1]; a reported violation fails the figure")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kite-bench: %v\n", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	fc := bench.DefaultFigureConfig(os.Stdout)
	fc.Nodes = *nodes
	fc.Groups = *groups
	fc.Workers = *workers
	fc.SessionsPerWorker = *sessions
	fc.Keys = *keys
	fc.Measure = *measure
	fc.Warmup = *warmup
	fc.AuditSample = *auditRate

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "kite-bench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	// A report is written only for an explicitly selected figure: under
	// -fig all the shard and recovery reports would overwrite each other
	// at the same path.
	report := func(rep any, err error) error {
		if err != nil || *fig == "all" || *jsonPath == "" {
			return err
		}
		return writeJSON(*jsonPath, rep)
	}

	run("5", func() error { return bench.Figure5(fc, nil) })
	run("6", func() error { return bench.Figure6(fc, nil) })
	run("7", func() error { return bench.Figure7(fc) })
	run("8", func() error { return bench.Figure8(fc, *structs, 0) })
	run("9", func() error { return bench.Figure9(fc, *sleepFor) })
	run("recovery", func() error { return report(bench.FigureRecovery(fc, *prefill)) })
	run("reconfig", func() error { return report(bench.FigureReconfig(fc, *prefill)) })
	run("timeout", func() error { return bench.AblationTimeout(fc, nil) })
	run("fastpath", func() error { return bench.AblationFastPath(fc) })
	run("shard", func() error { return report(bench.FigureShard(fc, *shardTotal, nil)) })
	run("durability", func() error { return report(bench.FigureDurability(fc)) })
	run("latency", func() error { return report(bench.FigureLatency(fc)) })
}

// writeJSON writes a figure's machine-readable report (the BENCH_<n>.json
// baseline format).
func writeJSON(path string, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
