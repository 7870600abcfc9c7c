// Command benchmark is the repository's gated benchmark (ISSUE 12): five
// named workloads, the same end-to-end metrics on each, per-layer probes and
// a traced run, with a correctness gate attached to every timed run. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload inproc-mixed --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh -seed 1 -out a.json            # every workload
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance records what produced a result file.
type provenance struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Drivers    int     `json:"drivers"`
	Sessions   int     `json:"sessions"`
}

// setReport is one run of one or more workloads: the unit -out appends to a
// result file and -compare reads.
type setReport struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadReport `json:"workloads"`
}

// commit is the VCS revision the binary was built from, when the go tool
// could see one (the acceptance driver's checkout is not a repository).
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// driverResult is the one-line result the acceptance driver reads.
type driverResult struct {
	Correct   bool                       `json:"correct"`
	Attempted uint64                     `json:"attempted"`
	Failed    uint64                     `json:"failed"`
	Metrics   map[string]driverMetricOut `json:"metrics"`
}

type driverMetricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(r *workloadReport, trace bool) driverResult {
	set := r.EndToEnd
	if trace {
		set = r.PerLayer
	}
	out := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetricOut{}}
	for name, m := range set {
		out.Metrics[name] = driverMetricOut{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up happens.
func run() int {
	fatal := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		return 1
	}
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same op streams")
		seconds = flag.Float64("seconds", 16, "measured seconds per workload: half closed loop (sat), half open loop (paced)")
		trace   = flag.Int("trace", 0, "1: the traced run (spans, probes, per-layer metrics); 0: the end-to-end run")
		probes  = flag.Bool("probes", false, "also run the layer probes and report per-layer metrics in an untraced run")
		out     = flag.String("out", "", "append the full report to this result file (a JSON array of runs)")
		repeat  = flag.Int("repeat", 1, "run the set this many times (spread for -compare)")
		compare = flag.Bool("compare", false, "compare two result files against the bounds of ./BENCHMARK.json: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fatal("-compare takes two result files")
		}
		return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fatal("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fatal("-seconds %v: need at least 1", *seconds)
	}

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fatal("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}

	scratch, err := scratchDir()
	if err != nil {
		return fatal("%v", err)
	}
	defer os.RemoveAll(scratch)

	cfg := configFor(*seconds)
	cfg.Seed, cfg.Trace, cfg.Probes = *seed, *trace != 0, *probes
	cfg.Scratch, cfg.OutDir = scratch, filepath.Join("benchmark", "out")

	ok := true
	var last *workloadReport
	for rep := 0; rep < *repeat; rep++ {
		set := setReport{Provenance: provenance{
			Seed: *seed, Seconds: *seconds, Trace: cfg.Trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Drivers: numDrivers, Sessions: numSessions,
		}}
		for _, w := range todo {
			r, err := runWorkload(w, cfg)
			if err != nil {
				return fatal("%v", err)
			}
			printReport(os.Stderr, r)
			ok = ok && r.Correct && r.Valid
			set.Workloads = append(set.Workloads, r)
			last = r
		}
		if *out != "" {
			if err := appendSet(*out, set); err != nil {
				return fatal("%v", err)
			}
		}
	}
	if !ok {
		// No result line: a run that is wrong or invalid has no numbers
		// worth comparing.
		return fatal("run failed its correctness gate or a validity guard (see above)")
	}
	if len(todo) == 1 {
		line, err := json.Marshal(driverLine(last, cfg.Trace))
		if err != nil {
			return fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	return 0
}

// printReport writes a run's numbers for a human.
func printReport(f *os.File, r *workloadReport) {
	fmt.Fprintf(f, "== %s  seed %d  correct=%v valid=%v  attempted=%d failed=%d (failed_ops_ratio %.6f)\n",
		r.Workload, r.Seed, r.Correct, r.Valid, r.Attempted, r.Failed, r.FailedOps)
	for _, why := range r.Invalid {
		fmt.Fprintf(f, "   INVALID: %s\n", why)
	}
	for _, why := range r.Warnings {
		fmt.Fprintf(f, "   WARNING: %s\n", why)
	}
	for _, v := range r.Verify.TailViolations {
		fmt.Fprintf(f, "   VERIFY: %s\n", v)
	}
	for _, v := range r.Verify.FAAMismatch {
		fmt.Fprintf(f, "   VERIFY: %s\n", v)
	}
	fmt.Fprintf(f, "   verify: %d tail events judged, %d FAAs acknowledged = counter sum %d\n",
		r.Verify.TailEvents, r.Verify.FAAAcked, r.Verify.CounterSum)
	for _, d := range endToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Fprintf(f, "   %-28s %14.3f %-6s (n=%d)\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	for _, d := range perLayer {
		if m := r.PerLayer[d.Name]; m.Samples != 0 {
			fmt.Fprintf(f, "   %-40s %14.3f %s (n=%d)\n", d.Name, m.Value, m.Unit, m.Samples)
		} else if m.Value != 0 {
			fmt.Fprintf(f, "   %-40s %14.3f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(f, "   trace: %s\n", r.TraceFile)
	}
}

// appendSet adds set to the JSON array in path, creating it if absent.
func appendSet(path string, set setReport) error {
	sets, err := readSets(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(sets, set), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSets(path string) ([]setReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []setReport
	if err := json.Unmarshal(data, &sets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sets, nil
}
