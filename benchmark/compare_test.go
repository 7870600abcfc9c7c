package main

import (
	"bytes"
	"strings"
	"testing"
)

// sets builds result sets for one workload with the given values of one
// metric, one set per value.
func sets(workload, name string, values ...float64) []setReport {
	var out []setReport
	for _, v := range values {
		out = append(out, setReport{Workloads: []*workloadReport{{
			Workload: workload, EndToEnd: metricSet{name: {Value: v}},
		}}})
	}
	return out
}

func TestVerdicts(t *testing.T) {
	lower := []bound{{Name: "paced_sync_p99_us", Better: "lower", Bound: 0.10}}
	higher := []bound{{Name: "sat_throughput_ops_s", Better: "higher", Bound: 0.10}}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		bounds []bound
		a, b   []float64
		want   string
		worse  int
	}{
		{"unchanged", lower, steady, steady, "ok", 0},
		{"latency up within the bound", lower, steady, []float64{108, 109, 107, 108, 110}, "ok", 0},
		{"latency up beyond the bound", lower, steady, []float64{120, 121, 119, 120, 122}, "worse", 1},
		{"latency down is never worse", lower, steady, []float64{50, 51, 49, 50, 52}, "ok", 0},
		{"throughput down beyond the bound", higher, steady, []float64{80, 81, 79, 80, 82}, "worse", 1},
		{"throughput up is never worse", higher, steady, []float64{150, 151, 149, 150, 152}, "ok", 0},
		{"baseline too noisy to resolve", lower, []float64{100, 140, 60, 100, 120}, []float64{130, 131, 129, 130, 132}, "unresolved", 0},
		{"candidate too noisy to resolve", lower, steady, []float64{100, 160, 60, 100, 140}, "unresolved", 0},
	} {
		var out bytes.Buffer
		name := c.bounds[0].Name
		worse := compareSets(c.bounds, sets("hot-sync", name, c.a...), sets("hot-sync", name, c.b...), &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if worse != c.worse {
			t.Errorf("%s: %d rows worse, want %d\n%s", c.name, worse, c.worse, out.String())
		}
		if len(lines) < 2 || !strings.HasSuffix(lines[1], c.want) {
			t.Errorf("%s: want verdict %q\n%s", c.name, c.want, out.String())
		}
	}
}

// A metric without a bound is shown and never fails the comparison.
func TestUngatedMetricsAreInformational(t *testing.T) {
	rows := []bound{{Name: "paced_sync_p99_us", Better: "lower"}}
	a := []setReport{{Workloads: []*workloadReport{{Workload: "hot-sync", PerLayer: metricSet{"paced_sync_p99_us": {Value: 100}}}}}}
	b := []setReport{{Workloads: []*workloadReport{{Workload: "hot-sync", PerLayer: metricSet{"paced_sync_p99_us": {Value: 900}}}}}}
	var out bytes.Buffer
	if worse := compareSets(rows, a, b, &out); worse != 0 {
		t.Fatalf("an ungated metric failed the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "+800.0%") || !strings.Contains(out.String(), "info") {
		t.Fatalf("row missing:\n%s", out.String())
	}
}

func TestFailedOpsHaveAnAbsoluteBound(t *testing.T) {
	a := []setReport{{Workloads: []*workloadReport{{Workload: "hot-sync", FailedOps: 0}}}}
	b := []setReport{{Workloads: []*workloadReport{{Workload: "hot-sync", FailedOps: 0.002}}}}
	var out bytes.Buffer
	if worse := compareSets(nil, a, b, &out); worse != 1 {
		t.Fatalf("0.2%% failed ops not reported worse:\n%s", out.String())
	}
	out.Reset()
	if worse := compareSets(nil, a, a, &out); worse != 0 {
		t.Fatalf("no failed ops reported worse:\n%s", out.String())
	}
}

// A row exists per workload x metric present on both sides, and only those.
func TestRowsPerWorkloadAndMetric(t *testing.T) {
	bounds := []bound{{Name: "sat_throughput_ops_s", Better: "higher", Bound: 0.1}, {Name: "setup_s", Better: "lower", Bound: 0.25}}
	a := append(sets("inproc-mixed", "sat_throughput_ops_s", 10), sets("pause-cycle", "setup_s", 1)...)
	var out bytes.Buffer
	compareSets(bounds, a, a, &out)
	got := out.String()
	if strings.Count(got, "inproc-mixed") != 2 || strings.Count(got, "pause-cycle") != 2 || strings.Contains(got, "hot-sync") {
		t.Fatalf("rows:\n%s", got)
	}
}
