package bench

import (
	"os"
	"runtime"
	"time"
)

// The durability study: what the write-ahead log costs on the workload it
// taxes hardest — relaxed writes, which are otherwise pure in-memory
// appends plus an asynchronous broadcast. Three configurations ladder the
// durability/performance trade-off: no WAL (the paper's memory-only
// evaluation), group-commit (appends buffered, fsync on a deadline — the
// default), and per-op fsync (every acknowledgment preceded by an fsync).
// Group-commit is the interesting point: its cost is one buffered memcpy
// per write plus a background flusher, so it should land within a small
// factor of the memory-only line while bounding data loss to the fsync
// deadline.

// DurabilityPoint is one WAL configuration's measured throughput.
type DurabilityPoint struct {
	// Mode is "off", "group-commit" or "per-op-fsync".
	Mode string `json:"mode"`
	// FsyncIntervalNS is the group-commit deadline (0 off/default, -1
	// per-op).
	FsyncIntervalNS time.Duration `json:"fsync_interval_ns"`
	Mreqs           float64       `json:"mreqs"`
	// RelativeToOff is this point's throughput as a fraction of the
	// memory-only line — the figure's headline number.
	RelativeToOff float64 `json:"relative_to_off"`
}

// DurabilityReport is the machine-readable output of FigureDurability —
// the format committed as BENCH_3.json.
type DurabilityReport struct {
	Name       string            `json:"name"`
	TotalNodes int               `json:"total_nodes"`
	Workers    int               `json:"workers"`
	Sessions   int               `json:"sessions_per_worker"`
	Keys       uint64            `json:"keys"`
	Measure    time.Duration     `json:"measure_ns"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Points     []DurabilityPoint `json:"points"`
}

// FigureDurability measures the relaxed-write workload (100% ES writes —
// the mix a WAL taxes hardest) across the three durability configurations.
func FigureDurability(fc FigureConfig) (*DurabilityReport, error) {
	rep := &DurabilityReport{
		Name:       "durability",
		TotalNodes: fc.Nodes,
		Workers:    fc.Workers,
		Sessions:   fc.SessionsPerWorker,
		Keys:       fc.Keys,
		Measure:    fc.Measure,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	series := []struct {
		mode  string
		wal   bool
		fsync time.Duration
	}{
		{"off", false, 0},
		{"group-commit", true, 0},  // default deadline (10ms)
		{"per-op-fsync", true, -1}, // fsync before every acknowledgment
	}
	fc.printf("# Durability: relaxed-write throughput (mreqs) vs WAL mode, %d nodes\n", fc.Nodes)
	fc.printf("%-16s %10s %10s\n", "mode", "mreqs", "vs-off")
	for _, s := range series {
		// The points share a process; collect between them so a later
		// mode is not taxed for an earlier mode's garbage.
		runtime.GC()
		opts := fc.kiteOptions()
		opts.FsyncInterval = s.fsync
		if s.wal {
			dir, err := os.MkdirTemp("", "kite-bench-wal-*")
			if err != nil {
				return nil, err
			}
			opts.WALDir = dir
			defer os.RemoveAll(dir)
		}
		res, err := RunKite(KiteOpts{Name: "durability-" + s.mode, Options: opts,
			Load: fc.load(Mix{WriteRatio: 1.0})})
		if err != nil {
			return nil, err
		}
		pt := DurabilityPoint{Mode: s.mode, FsyncIntervalNS: s.fsync, Mreqs: res.Mreqs()}
		if len(rep.Points) > 0 && rep.Points[0].Mreqs > 0 {
			pt.RelativeToOff = pt.Mreqs / rep.Points[0].Mreqs
		} else if s.mode == "off" {
			pt.RelativeToOff = 1
		}
		rep.Points = append(rep.Points, pt)
		fc.printf("%-16s %10.3f %9.2fx\n", s.mode, pt.Mreqs, pt.RelativeToOff)
	}
	return rep, nil
}
