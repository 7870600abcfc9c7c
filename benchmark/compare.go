package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// bound is one end-to-end metric of BENCHMARK.json: which way is better and
// the share of the baseline's median by which it may get worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// failedOpsBound is the absolute bound on failed_ops_ratio, which has no
// relative one: its baseline is 0.
const failedOpsBound = 0.001

// verdict judges one workload x metric row. worsening is the relative change
// of the medians in the bad direction; a spread (interquartile distance over
// median, of either side) wider than the bound means the runs cannot resolve
// a change of the size the bound forbids, whatever the medians say.
func verdict(worsening, spreadA, spreadB, bound float64) string {
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	}
	return "ok"
}

// worsening is how much worse b's median is than a's, as a share of a's.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// values gathers, from every run of a workload in sets, the named metric:
// end-to-end, per-layer, or failed_ops_ratio, which sits beside them.
func values(sets []setReport, workload, name string) (vals []float64) {
	for _, s := range sets {
		for _, w := range s.Workloads {
			if w.Workload != workload {
				continue
			}
			if name == "failed_ops_ratio" {
				vals = append(vals, w.FailedOps)
			} else if m, ok := w.EndToEnd[name]; ok {
				vals = append(vals, m.Value)
			} else if m, ok := w.PerLayer[name]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return vals
}

// compareSets prints one row per workload x metric of baseline a against
// candidate b and returns how many rows are worse. A metric without a bound
// (the ungated latency percentiles) gets a row for the reader and the verdict
// "info", which never fails the command.
func compareSets(bounds []bound, a, b []setReport, out io.Writer) (worse int) {
	fmt.Fprintf(out, "%-15s %-22s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "delta", "bound", "spread a", "spread b", "verdict")
	for _, w := range workloads {
		for _, bd := range bounds {
			va, vb := values(a, w.Name, bd.Name), values(b, w.Name, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			d := worsening(ma, mb, bd.Better)
			v, limit := "info", "-"
			if bd.Bound > 0 {
				v, limit = verdict(d, spread(va), spread(vb), bd.Bound), fmt.Sprintf("%.0f%%", 100*bd.Bound)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-15s %-22s %14.3f %14.3f %+7.1f%% %6s %7.1f%% %7.1f%%  %s\n",
				w.Name, bd.Name, ma, mb, 100*d, limit, 100*spread(va), 100*spread(vb), v)
		}
		fa, fb := values(a, w.Name, "failed_ops_ratio"), values(b, w.Name, "failed_ops_ratio")
		if len(fa) == 0 || len(fb) == 0 {
			continue
		}
		ma, mb := median(fa), median(fb)
		v := "ok"
		if mb > failedOpsBound {
			v = "worse"
			worse++
		}
		fmt.Fprintf(out, "%-15s %-22s %14.6f %14.6f %8s %6s %8s %8s  %s\n",
			w.Name, "failed_ops_ratio", ma, mb, "", "0.001", "", "", v)
	}
	return worse
}

// compareFiles is the -compare command; its return value is the exit code.
func compareFiles(benchPath, aPath, bPath string, out io.Writer) int {
	var bf struct {
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	data, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	var a, b []setReport
	if err == nil {
		a, err = readSets(aPath)
	}
	if err == nil {
		b, err = readSets(bPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	rows := bf.EndToEnd
	for _, m := range bf.PerLayer {
		if strings.HasPrefix(m.Name, "paced_") {
			rows = append(rows, m)
		}
	}
	if worse := compareSets(rows, a, b, out); worse > 0 {
		fmt.Fprintf(out, "%d row(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
