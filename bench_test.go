package kite_test

import (
	"testing"
	"time"

	"kite"
	"kite/internal/bench"
	"kite/internal/derecho"
	"kite/internal/zab"
)

// The testing.B benchmarks mirror the paper's evaluation, one per
// table/figure series, at a scale that completes quickly. Each reports
// mreqs (million requests per second, the paper's unit) via ReportMetric;
// `go run ./cmd/kite-bench` regenerates the full figures.

const (
	benchMeasure = 300 * time.Millisecond
	benchWarmup  = 80 * time.Millisecond
)

func benchConfig() kite.Options {
	return kite.Options{Nodes: 5, Workers: 4, SessionsPerWorker: 4, Capacity: 1 << 16}
}

func benchLoad(mix bench.Mix) bench.Load {
	return bench.Load{Mix: mix, Keys: 1 << 16, Warmup: benchWarmup, Measure: benchMeasure}
}

func runKiteBench(b *testing.B, mix bench.Mix) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKite(bench.KiteOpts{Options: benchConfig(), Load: benchLoad(mix)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Mreqs(), "mreqs")
	b.ReportMetric(0, "ns/op") // throughput benchmark; wall time is fixed
}

// --- Figure 5: throughput vs write ratio -------------------------------------

func BenchmarkFig5_ES_W5(b *testing.B)  { runKiteBench(b, bench.Mix{WriteRatio: 0.05}) }
func BenchmarkFig5_ES_W50(b *testing.B) { runKiteBench(b, bench.Mix{WriteRatio: 0.50}) }
func BenchmarkFig5_Kite_W5(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.05, SyncFrac: 0.05})
}
func BenchmarkFig5_Kite_W50(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.50, SyncFrac: 0.05})
}
func BenchmarkFig5_ABD_W5(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.05, SyncFrac: 1})
}
func BenchmarkFig5_ABD_W50(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.50, SyncFrac: 1})
}
func BenchmarkFig5_Paxos_W5(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.05, SyncFrac: 1, RMWFrac: 0.05})
}
func BenchmarkFig5_ZAB_W5(b *testing.B)  { runZabBench(b, 0.05) }
func BenchmarkFig5_ZAB_W50(b *testing.B) { runZabBench(b, 0.50) }

func runZabBench(b *testing.B, writeRatio float64) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		last = bench.RunZab(bench.ZabOpts{
			Config:     zab.Config{Nodes: 5, Workers: 4, SessionsPerWorker: 4, KVSCapacity: 1 << 16},
			WriteRatio: writeRatio, Keys: 1 << 16, Warmup: benchWarmup, Measure: benchMeasure,
		})
	}
	b.ReportMetric(last.Mreqs(), "mreqs")
	b.ReportMetric(0, "ns/op")
}

// --- Figure 6: Kite vs ZAB varying synchronisation ---------------------------

func BenchmarkFig6_Kite_W60_S20_R5(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.60, SyncFrac: 0.20, RMWFrac: 0.05})
}
func BenchmarkFig6_Kite_W60_S50_R50(b *testing.B) {
	runKiteBench(b, bench.Mix{WriteRatio: 0.60, SyncFrac: 0.50, RMWFrac: 0.50})
}

// --- Figure 7: write-only throughput -----------------------------------------

func BenchmarkFig7_KiteWrites(b *testing.B)   { runKiteBench(b, bench.Mix{WriteRatio: 1}) }
func BenchmarkFig7_KiteReleases(b *testing.B) { runKiteBench(b, bench.Mix{WriteRatio: 1, SyncFrac: 1}) }
func BenchmarkFig7_KiteRMWs(b *testing.B)     { runKiteBench(b, bench.Mix{WriteRatio: 1, RMWFrac: 1}) }
func BenchmarkFig7_ZABWrites(b *testing.B)    { runZabBench(b, 1) }

func BenchmarkFig7_DerechoOrdered(b *testing.B)   { runDerechoBench(b, derecho.Ordered) }
func BenchmarkFig7_DerechoUnordered(b *testing.B) { runDerechoBench(b, derecho.Unordered) }

func runDerechoBench(b *testing.B, mode derecho.Mode) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		last = bench.RunDerecho(bench.DerechoOpts{
			Config: derecho.Config{Nodes: 5, Mode: mode, KVSCapacity: 1 << 16},
			Keys:   1 << 16, Warmup: benchWarmup, Measure: benchMeasure,
		})
	}
	b.ReportMetric(last.Mreqs(), "mreqs")
	b.ReportMetric(0, "ns/op")
}

// --- Figure 8: lock-free data structures -------------------------------------

func runStructBench(b *testing.B, kind bench.StructKind, fields int, private bool) {
	b.Helper()
	var last bench.StructResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunStructs(bench.StructOpts{
			Kind: kind, Fields: fields,
			Options: kite.Options{Nodes: 5, Workers: 4, SessionsPerWorker: 4, Capacity: 1 << 16},
			Structs: 128, SessionsPerNode: 8, Private: private, WeakCAS: true,
			Warmup: benchWarmup, Measure: benchMeasure,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Mops()*1e3, "kops")
	b.ReportMetric(last.ReqsPerOp(), "reqs/op")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFig8_TS4(b *testing.B)       { runStructBench(b, bench.TreiberStack, 4, false) }
func BenchmarkFig8_TS32(b *testing.B)      { runStructBench(b, bench.TreiberStack, 32, false) }
func BenchmarkFig8_TS4_Ideal(b *testing.B) { runStructBench(b, bench.TreiberStack, 4, true) }
func BenchmarkFig8_MSQ4(b *testing.B)      { runStructBench(b, bench.MSQueue, 4, false) }
func BenchmarkFig8_MSQ32(b *testing.B)     { runStructBench(b, bench.MSQueue, 32, false) }
func BenchmarkFig8_HML4(b *testing.B)      { runStructBench(b, bench.HMList, 4, false) }

// --- Figure 9: failure study --------------------------------------------------

func BenchmarkFig9_FailureStudy(b *testing.B) {
	var last bench.FailureOutcome
	for i := 0; i < b.N; i++ {
		l := benchLoad(bench.Mix{WriteRatio: 0.05, SyncFrac: 0.05})
		l.Warmup, l.Measure = 150*time.Millisecond, 500*time.Millisecond
		out, err := bench.RunFailureStudy(bench.FailureOpts{
			Options: benchConfig(), Load: l, SleepNode: 4,
			SleepAt: 100 * time.Millisecond, SleepFor: 200 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	b.ReportMetric(last.PreSleep, "mreqs-pre")
	b.ReportMetric(last.Intermediate, "mreqs-mid")
	b.ReportMetric(last.PostSleep, "mreqs-post")
	b.ReportMetric(0, "ns/op")
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationFastPathOff(b *testing.B) {
	var last bench.Result
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.DisableFastPath = true
		res, err := bench.RunKite(bench.KiteOpts{Options: cfg,
			Load: benchLoad(bench.Mix{WriteRatio: 0.05, SyncFrac: 0.05})})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Mreqs(), "mreqs")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkAblationStrongCASStack(b *testing.B) {
	var last bench.StructResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunStructs(bench.StructOpts{
			Kind: bench.TreiberStack, Fields: 4,
			Options: kite.Options{Nodes: 5, Workers: 4, SessionsPerWorker: 4, Capacity: 1 << 16},
			Structs: 128, SessionsPerNode: 8, WeakCAS: false, // strong CAS everywhere
			Warmup: benchWarmup, Measure: benchMeasure,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Mops()*1e3, "kops")
	b.ReportMetric(0, "ns/op")
}
