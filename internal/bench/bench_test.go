package bench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"kite"
)

// smokeOptions sizes the miniature load studies to the host: the full-size
// cluster (5 nodes x 4 workers plus one driver goroutine per session) used
// to be skipped under -short because it starved on 1-CPU hosts. Scaling the
// goroutine count with GOMAXPROCS keeps the study meaningful everywhere
// and lets the smoke tests run unconditionally.
func smokeOptions() kite.Options {
	o := kite.Options{Nodes: 3, Workers: 2, SessionsPerWorker: 2, Capacity: 1 << 10}
	if runtime.GOMAXPROCS(0) < 4 {
		o.Workers, o.SessionsPerWorker = 1, 1
	}
	return o
}

// smokeWindow bounds outstanding async ops per session on small hosts.
func smokeWindow() int {
	if runtime.GOMAXPROCS(0) < 4 {
		return 2
	}
	return 4
}

func TestMixThresholds(t *testing.T) {
	// The paper's worked example (§8.1): 60% write ratio, 50% sync, 50%
	// RMWs = 50% RMWs, 5% writes, 5% releases, 20% reads, 20% acquires.
	th := Mix{WriteRatio: 0.60, SyncFrac: 0.50, RMWFrac: 0.50}.thresholds()
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(th.rmw, 0.50) {
		t.Fatalf("rmw threshold %v", th.rmw)
	}
	if !approx(th.release-th.rmw, 0.05) {
		t.Fatalf("release share %v", th.release-th.rmw)
	}
	if !approx(th.write-th.release, 0.05) {
		t.Fatalf("write share %v", th.write-th.release)
	}
	if !approx(th.acquire-th.write, 0.20) {
		t.Fatalf("acquire share %v", th.acquire-th.write)
	}
	if !approx(1-th.acquire, 0.20) {
		t.Fatalf("read share %v", 1-th.acquire)
	}
	// Pick at the boundaries.
	if th.pick(0) != kite.OpFAA || th.pick(0.999) != kite.OpRead {
		t.Fatal("pick at extremes")
	}
}

func TestMixAllRelaxed(t *testing.T) {
	th := Mix{WriteRatio: 0.2}.thresholds()
	counts := map[kite.OpCode]int{}
	for i := 0; i < 1000; i++ {
		counts[th.pick(float64(i)/1000)]++
	}
	if counts[kite.OpFAA] != 0 || counts[kite.OpRelease] != 0 || counts[kite.OpAcquire] != 0 {
		t.Fatalf("sync ops in relaxed mix: %v", counts)
	}
	if counts[kite.OpWrite] < 150 || counts[kite.OpWrite] > 250 {
		t.Fatalf("write share %d/1000", counts[kite.OpWrite])
	}
}

func TestRunKiteSmoke(t *testing.T) {
	res, err := RunKite(KiteOpts{
		Options: smokeOptions(),
		Load: Load{Mix: Mix{WriteRatio: 0.2, SyncFrac: 0.1}, Keys: 1 << 10, Window: smokeWindow(),
			Warmup: 30 * time.Millisecond, Measure: 80 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no throughput measured")
	}
}

// TestRunKiteAudited: a perf run with the online auditor riding along must
// stay clean, report real coverage in Extra, and keep measuring.
func TestRunKiteAudited(t *testing.T) {
	res, err := RunKite(KiteOpts{
		Options: smokeOptions(),
		Load: Load{Mix: Mix{WriteRatio: 0.3, SyncFrac: 0.2, RMWFrac: 0.1}, Keys: 1 << 8, Window: smokeWindow(),
			Warmup: 30 * time.Millisecond, Measure: 80 * time.Millisecond},
		AuditSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no throughput measured under audit")
	}
	if res.Extra["audit_sampled"] == 0 || res.Extra["audit_judged"] == 0 {
		t.Fatalf("no audit coverage: %v", res.Extra)
	}
}

func TestRunKiteShardedSmoke(t *testing.T) {
	o := smokeOptions()
	o.Nodes = 2 // two groups of two: four nodes total
	res, err := RunKite(KiteOpts{
		Options: o, Groups: 2,
		Load: Load{Mix: Mix{WriteRatio: 0.5, SyncFrac: 0.1}, Keys: 1 << 10, Window: smokeWindow(),
			Warmup: 30 * time.Millisecond, Measure: 80 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no sharded throughput measured")
	}
}

func TestRunFailureStudySmoke(t *testing.T) {
	out, err := RunFailureStudy(FailureOpts{
		Options: smokeOptions(),
		Load: Load{Mix: Mix{WriteRatio: 0.05, SyncFrac: 0.05}, Keys: 1 << 10, Window: smokeWindow(),
			Warmup: 30 * time.Millisecond, Measure: 220 * time.Millisecond},
		SleepNode: 2, SleepAt: 60 * time.Millisecond, SleepFor: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline) == 0 || out.PreSleep == 0 {
		t.Fatalf("empty timeline: %+v", out)
	}
	// Availability: the cluster keeps serving during the sleep.
	if out.Intermediate <= 0 {
		t.Fatal("throughput collapsed during the sleep")
	}
}

// TestTimelineExcludesWarmup: completions counted before the sampled span
// starts must not land in its first sample (they would inflate every
// pre-failure average by the warmup-to-sample ratio).
func TestTimelineExcludesWarmup(t *testing.T) {
	tl := newTimeline(nil, Load{Warmup: 30 * time.Millisecond, Measure: 2 * sampleEvery}, 2)
	tl.counted[0].Add(1_000_000)
	tl.counted[1].Add(500_000)
	tps, err := tl.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tps) == 0 {
		t.Fatal("no samples")
	}
	for _, tp := range tps {
		if tp.Total != 0 {
			t.Fatalf("sample at %v counts warmup completions: %+v", tp.At, tp)
		}
	}
}

func TestStructResultMetrics(t *testing.T) {
	r := StructResult{
		Ops: 100, Duration: time.Second,
		APIReads: 400, APIWrites: 200, APISync: 200, APIRMW: 200,
	}
	if got := r.ReqsPerOp(); got != 10 {
		t.Fatalf("reqs/op = %v", got)
	}
	// writes(200) + sync/2(100) + rmw(200) over 1000.
	if got := r.WriteRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("write ratio = %v", got)
	}
	if got := r.SyncPer(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("sync-per = %v", got)
	}
}
