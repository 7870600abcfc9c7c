package main

// metricDef names one metric the benchmark reports. The tables below are the
// single source of the names; BENCHMARK.json repeats them for the acceptance
// driver and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees and the acceptance driver gates,
// the same on every workload: each holds its bound on all five workloads on
// the 2-core reference box (README, "Measured spread"). failed_ops_ratio
// belongs with them, but it is 0 on a healthy run and a gated metric may never
// be 0, so the driver reads it from the result's attempted/failed fields.
var endToEnd = []metricDef{
	{"sat_throughput_ops_s", "ops/s", "higher"},
	{"paced_cpu_us_per_op", "us/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer metrics are informational: the paced latency percentiles, boundary
// counters read through public accessors over the sat phase, load-generator
// health, span self times from the traced run, and the layer probes of
// probes.go. A metric that does not apply to a workload (server.* in process,
// wal.* without a WAL) reads 0.
//
// The six paced_* latencies are end-to-end by nature and were meant to be
// gated (ISSUE 12). They are not, because no bound the driver accepts (at most
// 0.25) survives their run-to-run spread on every workload: p50 spreads are
// 3-11 % on the three healthy in-memory workloads in a quiet stretch, 18-74 %
// in the next, and 17-79 % on durable-writes and pause-cycle; p99 sits on the
// cliff between ops a GC cycle touched and ops it did not (30-340 %). ISSUE 12
// names this way out: demote, with a note, rather than widen a bound silently.
var perLayer = []metricDef{
	{"paced_relaxed_p50_us", "us", "lower"},
	{"paced_relaxed_p99_us", "us", "lower"},
	{"paced_sync_p50_us", "us", "lower"},
	{"paced_sync_p99_us", "us", "lower"},
	{"paced_rmw_p50_us", "us", "lower"},
	{"paced_rmw_p99_us", "us", "lower"},
	{"core.local_acq_hit_ratio", "ratio", "higher"},
	{"core.slow_reads_per_kop", "1/kop", "lower"},
	{"core.slow_writes_per_kop", "1/kop", "lower"},
	{"core.slow_releases_per_kop", "1/kop", "lower"},
	{"core.epoch_bumps", "count", "lower"},
	{"shard.flushes_per_sync_op", "ratio", "lower"},
	{"transport.msgs_per_op", "msg/op", "lower"},
	{"transport.msgs_per_batch", "msg/batch", "higher"},
	{"transport.datagrams_per_syscall", "dgram/call", "higher"},
	{"transport.fallback_syscalls", "count", "lower"},
	{"transport.dropped_full", "count", "lower"},
	{"server.requests_per_op", "req/op", "lower"},
	{"server.retransmit_ratio", "ratio", "lower"},
	{"server.dropped_replies", "count", "lower"},
	{"wal.disk_bytes_per_op", "B/op", "lower"},
	{"loadgen.late_ratio", "ratio", "lower"},
	{"loadgen.max_late_ms", "ms", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "lower"},
	{"loadgen.first_op_s", "s", "lower"},
	{"loadgen.prefill_s", "s", "lower"},
	{"trace.loadgen_wait_us_per_op", "us", "lower"},
	{"trace.session_submit_us_per_op", "us", "lower"},
	{"trace.session_inflight_us_per_op", "us", "lower"},

	{"kvs.view_ns", "ns", "lower"},
	{"kvs.view_valid_ns", "ns", "lower"},
	{"kvs.local_write_ns", "ns", "lower"},
	{"kvs.apply_ns", "ns", "lower"},
	{"es.handle_write_ns", "ns", "lower"},
	{"es.tracker_add_ack_ns", "ns", "lower"},
	{"abd.handle_read_ns", "ns", "lower"},
	{"abd.handle_write_ns", "ns", "lower"},
	{"abd.write_round_ns", "ns", "lower"},
	{"abd.read_round_ns", "ns", "lower"},
	{"paxos.handle_propose_ns", "ns", "lower"},
	{"paxos.handle_accept_ns", "ns", "lower"},
	{"paxos.apply_commit_ns", "ns", "lower"},
	{"barrier.on_acquire_ns", "ns", "lower"},
	{"barrier.on_slow_release_ns", "ns", "lower"},
	{"proto.marshal_ns_per_msg", "ns", "lower"},
	{"proto.unmarshal_ns_per_msg", "ns", "lower"},
	{"proto.client_batch_marshal_ns_per_op", "ns", "lower"},
	{"proto.client_batch_unmarshal_ns_per_op", "ns", "lower"},
	{"proto.wire_bytes_per_msg", "B", "lower"},
	{"transport.inproc_hop_ns_per_msg", "ns", "lower"},
	{"transport.udp_hop_ns_per_msg", "ns", "lower"},
	{"transport.udp_hop_allocs_per_batch", "count", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"shard.pump_overhead_ns", "ns", "lower"},
	{"core.single_node_op_ns", "ns", "lower"},
	{"client.single_node_rtt_us", "us", "lower"},
	{"client.single_node_batch_ops_s", "ops/s", "higher"},
	{"catchup.rejoin_ms", "ms", "lower"},
	{"membership.add_node_ms", "ms", "lower"},
}

// metric is one reported value. Samples is how many observations stand
// behind a timing (0 where that has no meaning).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

func (m metricSet) e2e(name string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unitOf(endToEnd, name), Samples: samples}
}

func (m metricSet) layer(name string, v float64) { m.layerN(name, v, 0) }

func (m metricSet) layerN(name string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unitOf(perLayer, name), Samples: samples}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
