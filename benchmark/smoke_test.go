package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end with 300 ms phases: the validity
// guards are off (nothing this short has a thousand samples per class), but
// every metric must be present and the correctness gate must pass. One
// workload also takes the traced path, probes included.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{
				Seed: 1, Warm: 100 * time.Millisecond, Sat: 300 * time.Millisecond,
				Paced: 300 * time.Millisecond, Tail: 300 * time.Millisecond,
				Trace:   w.Name == "remote-mixed",
				Scratch: t.TempDir(), OutDir: t.TempDir(),
			}
			r, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || !r.Verify.OK || r.Verify.TailEvents == 0 {
				t.Fatalf("verify not clean: %+v", r.Verify)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			for _, d := range endToEnd {
				if m, ok := r.EndToEnd[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v", d.Name, m)
				}
			}
			if !cfg.Trace {
				return
			}
			for _, d := range perLayer {
				if m, ok := r.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s = %+v", d.Name, m)
				}
			}
			for _, name := range []string{"kvs.view_ns", "abd.write_round_ns", "proto.marshal_ns_per_msg", "transport.udp_hop_ns_per_msg", "wal.sync_us", "client.single_node_rtt_us", "catchup.rejoin_ms", "transport.msgs_per_op", "server.requests_per_op"} {
				if r.PerLayer[name].Value <= 0 {
					t.Errorf("%s = %v on the remote workload", name, r.PerLayer[name].Value)
				}
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the acceptance driver reads,
// in step with the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from workloads.go", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v differs from %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: %+v differs from %+v", i, m, perLayer[i])
		}
	}
}
