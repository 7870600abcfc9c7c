package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kite"
	"kite/internal/history"
	"kite/internal/testcluster"
)

// TestGenerateDeterministic pins the reproducibility contract: a schedule
// is a pure function of its Config, and the seed genuinely matters.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Duration: 30 * time.Second, Nodes: 3}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different schedules:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	if c := Generate(cfg); reflect.DeepEqual(a.Actions, c.Actions) {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestGenerateGuarantees checks the structural invariants the runner and
// the workload rely on, across many seeds.
func TestGenerateGuarantees(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := Config{Seed: seed, Duration: 30 * time.Second, Nodes: 3, MaxConcurrent: 2}
		s := Generate(cfg)
		counts := map[NemesisKind]int{}
		for _, a := range s.Actions {
			counts[a.Kind]++
			if a.Heal > cfg.Duration || a.At >= a.Heal {
				t.Fatalf("seed %d: unhealed or inverted action %+v", seed, a)
			}
			if !a.Kind.lifecycle() && a.Kind != KindIsolateNode && (int(a.From) >= cfg.Nodes || int(a.To) >= cfg.Nodes || a.From == a.To) {
				t.Fatalf("seed %d: link fault outside boot membership: %+v", seed, a)
			}
		}
		for _, k := range AllKinds() {
			if k == KindAddRemove && counts[k] == 0 && counts[KindStopRestart] > 1 {
				continue // capacity fallback; not possible at Nodes=3 but allowed
			}
			if counts[k] == 0 {
				t.Fatalf("seed %d: kind %s never scheduled in %v", seed, k, s.Actions)
			}
		}
		for i, a := range s.Actions {
			if !a.Kind.lifecycle() {
				continue
			}
			for j, b := range s.Actions {
				if i != j && b.At < a.Heal && b.Heal > a.At {
					t.Fatalf("seed %d: lifecycle action %+v overlaps %+v", seed, a, b)
				}
			}
		}
		// Link-fault lane: at no instant more than MaxConcurrent active
		// faults (sweep over the start points), isolation always alone.
		link := func(k NemesisKind) bool {
			return k == KindDropLink || k == KindDelayLink || k == KindCutLink
		}
		for i, a := range s.Actions {
			if !link(a.Kind) && a.Kind != KindIsolateNode {
				continue
			}
			depth := 1
			for j, b := range s.Actions {
				if i == j || (!link(b.Kind) && b.Kind != KindIsolateNode) {
					continue
				}
				if b.At <= a.At && b.Heal > a.At { // active when a starts
					if a.Kind == KindIsolateNode || b.Kind == KindIsolateNode {
						t.Fatalf("seed %d: isolation overlaps another link fault: %+v / %+v", seed, a, b)
					}
					depth++
				}
			}
			if depth > cfg.MaxConcurrent {
				t.Fatalf("seed %d: %d concurrent link faults at %v (%+v)", seed, depth, a.At, a)
			}
		}
	}
}

// run is Run with the leg's judged-op counts in the test log. Every leg
// runs in parallel with the others: the workload is latency-bound, so
// concurrent legs judge about as many ops as serial ones.
func run(t *testing.T, tg Target, cfg Config) (*Report, *history.Recorded) {
	rep, rec := Run(tg, cfg)
	t.Logf("%s seed %d: judged %d ops (%d ok, %d maybe, %d never)",
		rep.Backend, rep.Seed, rep.Ops.Total, rep.Ops.OK, rep.Ops.Maybe, rep.Ops.Never)
	return rep, rec
}

func chaosConfig(t *testing.T) Config {
	d := 8 * time.Second
	if testing.Short() {
		d = 5 * time.Second
	}
	return Config{Seed: 1, Duration: d}
}

// deploy boots backend b as a chaos target: one worker and `sessions`
// sessions per replica, and remote client timeouts short enough that an op
// wedged behind a fault frees its workload slot.
func deploy(t *testing.T, b testcluster.Backend, sessions int, walDir string) *testcluster.Cluster {
	return testcluster.Start(t, testcluster.Options{
		Backend: b, OpTimeout: 3 * time.Second,
		Options: kite.Options{Workers: 1, SessionsPerWorker: sessions, WALDir: walDir},
	})
}

// runAllKinds is a full seeded run against b — every nemesis kind injected,
// history verified, evidence ledger non-trivial.
func runAllKinds(t *testing.T, b testcluster.Backend, sessions int) {
	t.Parallel()
	rep, rec := run(t, deploy(t, b, sessions, ""), chaosConfig(t))
	if !rep.Passed {
		t.Fatalf("%s chaos run failed: errors=%v verifier:\n%s", b, rep.Errors, rep.Verifier.String())
	}
	if rec == nil || len(rec.Events) == 0 || rep.Ops.OK == 0 {
		t.Fatalf("no history recorded: %+v", rep.Ops)
	}
	for _, k := range AllKinds() {
		if rep.Injected[k] == 0 {
			t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
		}
	}
}

// TestChaosInproc, TestChaosRemote, TestChaosSharded and
// TestChaosShardedRemote are the chaos acceptance matrix: the same run
// against each of the four backends. On the sharded ones nemeses hit the
// same machine slot in every group through the FaultSet; on the remote
// ones faults hit the replica links while the workload runs through real
// clients over loopback UDP.
func TestChaosInproc(t *testing.T)        { runAllKinds(t, testcluster.InProc, 4) }
func TestChaosRemote(t *testing.T)        { runAllKinds(t, testcluster.Remote, 8) }
func TestChaosSharded(t *testing.T)       { runAllKinds(t, testcluster.ShardedInProc, 4) }
func TestChaosShardedRemote(t *testing.T) { runAllKinds(t, testcluster.ShardedRemote, 8) }

// runLocalReads runs the local-reads schedule — the nemesis mix biased at
// the local-acquire fast path's invalidate→validate window — against b.
// The scan workers' acquires mix local hits with quorum fallbacks while
// validates are delayed, peers isolated and replicas restarted; the
// verifier judges the history, and both halves of the fast path must have
// been exercised.
func runLocalReads(t *testing.T, b testcluster.Backend, sessions int, seed int64) {
	t.Parallel()
	c := deploy(t, b, sessions, "")
	cfg := chaosConfig(t)
	cfg.Seed = seed
	cfg.Kinds = LocalReadsKinds()
	rep, _ := run(t, c, cfg)
	if !rep.Passed {
		t.Fatalf("%s local-reads chaos run failed: errors=%v verifier:\n%s", b, rep.Errors, rep.Verifier.String())
	}
	for _, k := range LocalReadsKinds() {
		if rep.Injected[k] == 0 {
			t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
		}
	}
	var hits, falls uint64
	for n := 0; n < c.Nodes(); n++ {
		st := c.NodeStats(n)
		hits += st.LocalAcqHits
		falls += st.AcqFallbacks
	}
	if hits == 0 || falls == 0 {
		t.Fatalf("fast path not exercised under chaos: hits=%d fallbacks=%d", hits, falls)
	}
}

// TestChaosLocalReadsInproc runs three seeds in process; the remote and
// sharded legs run one each.
func TestChaosLocalReadsInproc(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runLocalReads(t, testcluster.InProc, 4, seed)
		})
	}
}

func TestChaosLocalReadsRemote(t *testing.T)  { runLocalReads(t, testcluster.Remote, 8, 1) }
func TestChaosLocalReadsSharded(t *testing.T) { runLocalReads(t, testcluster.ShardedInProc, 4, 1) }

// TestChaosWireBatchingInproc runs the wire-batching schedule — the nemesis
// mix biased at the batched transport's flush/linger window, plus burst
// sessions whose high-fanout relaxed-write batches keep the flush deadlines
// hot — over two seeds against the in-process cluster. The burst keys are
// disjoint from every verified range and the burst sessions are unrecorded,
// so the verifier judges the recorded workers exactly as in the default run;
// the burst-op counter proves the load generator actually ran.
func TestChaosWireBatchingInproc(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(t)
			cfg.Seed = seed
			cfg.Kinds = WireBatchingKinds()
			cfg.BurstSessions = 3
			rep, _ := run(t, deploy(t, testcluster.InProc, 8, ""), cfg)
			if !rep.Passed {
				t.Fatalf("wire-batching chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
			}
			for _, k := range WireBatchingKinds() {
				if rep.Injected[k] == 0 {
					t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
				}
			}
			if rep.BurstOps == 0 {
				t.Fatal("burst sessions requested but no burst writes completed")
			}
		})
	}
}
