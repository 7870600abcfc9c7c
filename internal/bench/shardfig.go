package bench

import (
	"fmt"
	"runtime"
	"time"
)

// The sharding scaling study: throughput vs replica-group count at a FIXED
// total machine count. A single group's relaxed-write cost is one broadcast
// to all T-1 peers; carving the same T machines into G groups of T/G cuts
// every write's fan-out to T/G-1 and every sync quorum from T/2+1 to
// T/(2G)+1 — so relaxed throughput should grow near-linearly in G while
// synchronisation cost stays flat or improves. This is the figure that
// shows machines becoming throughput instead of replication degree.

// ShardPoint is one measured point of the scaling series.
type ShardPoint struct {
	Groups        int `json:"groups"`
	NodesPerGroup int `json:"nodes_per_group"`
	// RelaxedMreqs is million requests/s on the write-only relaxed mix
	// (pure Eventual Store broadcasts — the fan-out-bound workload).
	RelaxedMreqs float64 `json:"relaxed_mreqs"`
	// MixedMreqs is million requests/s on the paper's default mixed
	// workload (20% writes, 5% sync).
	MixedMreqs float64 `json:"mixed_mreqs"`
	// SyncMreqs is million requests/s on the all-synchronisation mix
	// (release/acquire ABD quorums only).
	SyncMreqs float64 `json:"sync_mreqs"`
}

// ShardReport is the machine-readable output of FigureShard — the format
// committed as BENCH_0.json and extended by later baselines.
type ShardReport struct {
	Name       string        `json:"name"`
	TotalNodes int           `json:"total_nodes"`
	Workers    int           `json:"workers"`
	Sessions   int           `json:"sessions_per_worker"`
	Keys       uint64        `json:"keys"`
	Measure    time.Duration `json:"measure_ns"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Points     []ShardPoint  `json:"points"`
}

// FigureShard measures the scaling series for every group count in groups
// that divides totalNodes, holding the total machine count and the total
// driven-session count constant (sessions-per-worker scales with G so G
// groups of T/G nodes drive as many sessions as 1 group of T).
func FigureShard(fc FigureConfig, totalNodes int, groups []int) (*ShardReport, error) {
	if totalNodes == 0 {
		totalNodes = 4
	}
	if len(groups) == 0 {
		// Group counts that don't divide totalNodes are skipped below, so
		// the default series serves both the 4-machine pinned config
		// (points 1/2/4) and the 8-machine one (all four points).
		groups = []int{1, 2, 4, 8}
	}
	rep := &ShardReport{
		Name:       "shard-scaling",
		TotalNodes: totalNodes,
		Workers:    fc.Workers,
		Sessions:   fc.SessionsPerWorker,
		Keys:       fc.Keys,
		Measure:    fc.Measure,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fc.printf("# Shard scaling: throughput (mreqs) vs groups, %d machines total\n", totalNodes)
	fc.printf("%-8s %6s %14s %12s %12s\n", "groups", "n/grp", "relaxed-write", "mixed", "sync")
	series := []struct {
		name string
		mix  Mix
	}{
		{"relaxed", Mix{WriteRatio: 1.0}},
		{"mixed", Mix{WriteRatio: 0.20, SyncFrac: 0.05}},
		{"sync", Mix{WriteRatio: 0.50, SyncFrac: 1.0}},
	}
	for _, g := range groups {
		if g < 1 || totalNodes%g != 0 || totalNodes/g < 1 {
			fc.printf("%-8d (skipped: %d machines not divisible)\n", g, totalNodes)
			continue
		}
		opts := fc.kiteOptions()
		opts.Nodes = totalNodes / g
		// Hold the driven-session count constant across points.
		opts.SessionsPerWorker = fc.SessionsPerWorker * g
		pt := ShardPoint{Groups: g, NodesPerGroup: opts.Nodes}
		for _, s := range series {
			res, err := RunKite(KiteOpts{
				Name:    fmt.Sprintf("shard-%s-g%d", s.name, g),
				Options: opts, Groups: g, Load: fc.load(s.mix),
			})
			if err != nil {
				return nil, err
			}
			switch s.name {
			case "relaxed":
				pt.RelaxedMreqs = res.Mreqs()
			case "mixed":
				pt.MixedMreqs = res.Mreqs()
			case "sync":
				pt.SyncMreqs = res.Mreqs()
			}
		}
		rep.Points = append(rep.Points, pt)
		fc.printf("%-8d %6d %14.3f %12.3f %12.3f\n",
			g, pt.NodesPerGroup, pt.RelaxedMreqs, pt.MixedMreqs, pt.SyncMreqs)
	}
	return rep, nil
}
