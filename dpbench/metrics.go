package main

// metric is one entry of the benchmark's metric catalogue. The
// catalogue and BENCHMARK.json at the repository root must agree; the
// package tests hold them to that.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change counts as a
	// regression.
	bound float64
	// moves (per-layer only) names the end-to-end metric and workload
	// the layer metric should move.
	moves string
}

// nfNames are the NF types the three workloads run; each gets a
// standalone Process timing on every workload's packets and a live
// service time where it is in the workload's chain.
var nfNames = []string{"l3fwd", "vpn", "monitor", "firewall", "lb", "ids"}

var endToEnd = []metric{
	{name: "throughput_mpps", unit: "Mpps", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_cores_at_rate", unit: "cores", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "correct_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	m := []metric{
		{"mempool.alloc_batch_ns", "ns/pkt", "lower", 0, "throughput_mpps on fwd5_64b"},
		{"mempool.alloc_stalls_per_kpkt", "count/kpkt", "lower", 0, "throughput_mpps on fwd5_64b"},
		{"mempool.alloc_free_ns", "ns/pkt", "lower", 0, "throughput_mpps on fwd5_64b (standalone AllocBatch+FreeBatch)"},
		{"mempool.in_use_high_water", "buffers", "lower", 0, "latency_p90_us and latency_p99_us on northsouth_dc"},
		{"dataplane.inject_batch_ns", "ns/pkt", "lower", 0, "throughput_mpps on fwd5_64b and westeast_flood"},
		{"dataplane.backpressure_parks_per_kpkt", "count/kpkt", "lower", 0, "throughput_mpps on fwd5_64b and westeast_flood"},
		{"dataplane.backpressure_yields_per_kpkt", "count/kpkt", "lower", 0, "throughput_mpps on fwd5_64b and westeast_flood"},
		{"dataplane.ring_high_water_ratio", "ratio", "lower", 0, "latency_p90_us and latency_p99_us (fullest NF ring, open loop)"},
		{"dataplane.shard_ingress_high_water", "slots", "lower", 0, "latency_p90_us and latency_p99_us (fullest shard ingress ring, open loop)"},
		{"classifier.cache_hit_ratio", "ratio", "higher", 0, "throughput_mpps: hits on northsouth_dc, misses on westeast_flood"},
		{"classifier.cache_lookups_per_pkt", "ratio", "higher", 0, "base of classifier.cache_hit_ratio (0 = cache bypassed)"},
		{"classifier.cache_evictions_per_kpkt", "count/kpkt", "lower", 0, "throughput_mpps on westeast_flood"},
		{"classifier.classify_hit_ns", "ns/pkt", "lower", 0, "throughput_mpps on northsouth_dc (standalone ClassifyBatch, warm)"},
		{"classifier.classify_miss_ns", "ns/pkt", "lower", 0, "throughput_mpps on westeast_flood (standalone ClassifyBatch, never-seen flows)"},
		{"packet.parse_ns", "ns/pkt", "lower", 0, "throughput_mpps on fwd5_64b (standalone Parse+FlowKey)"},
		{"packet.copy_header_ns", "ns/pkt", "lower", 0, "throughput_mpps on westeast_flood (standalone HeaderOnlyCopy)"},
		{"dataplane.allocs_per_pkt", "allocs/pkt", "lower", 0, "heap_live_mb and throughput_mpps on northsouth_dc and westeast_flood (runtime Mallocs per delivered packet, closed loop)"},
		{"dataplane.copies_per_pkt", "copies/pkt", "lower", 0, "throughput_mpps on westeast_flood"},
		{"dataplane.copied_bytes_per_pkt", "B/pkt", "lower", 0, "throughput_mpps on westeast_flood"},
	}
	for _, nf := range nfNames {
		m = append(m, metric{"nf." + nf + ".process_ns", "ns/pkt", "lower", 0,
			"throughput_mpps where " + nf + " runs (standalone Process on the workload's packets)"})
	}
	for _, nf := range nfNames {
		m = append(m, metric{"nf." + nf + ".service_ns_p50", "ns/pkt", "lower", 0,
			"throughput_mpps where " + nf + " runs (nfp_nf_service_time_ns, closed loop; 0 = not in chain)"})
	}
	return append(m, []metric{
		{"merger.merge_latency_ns_p50", "ns", "lower", 0, "latency_p50_us on northsouth_dc and westeast_flood"},
		{"merger.at_high_water", "entries", "lower", 0, "latency_p50_us on northsouth_dc and westeast_flood"},
		{"merger.load_imbalance", "ratio", "lower", 0, "latency_p50_us on northsouth_dc and westeast_flood (max/mean merger load)"},
		{"core.compile_ms", "ms", "lower", 0, "setup_s"},
		{"dataplane.install_ms", "ms", "lower", 0, "setup_s"},
		{"trace.classify_ns", "ns", "lower", 0, "latency_p50_us (traced run, p50 per packet)"},
		{"trace.ring_wait_ns", "ns", "lower", 0, "latency_p50_us on fwd5_64b and northsouth_dc (idle park and wake-up)"},
		{"trace.service_ns", "ns", "lower", 0, "latency_p50_us (traced run, p50 per packet)"},
		{"trace.merge_wait_ns", "ns", "lower", 0, "latency_p50_us on northsouth_dc and westeast_flood"},
		{"trace.merge_ns", "ns", "lower", 0, "latency_p50_us on northsouth_dc and westeast_flood"},
		{"trace.output_ns", "ns", "lower", 0, "latency_p50_us (traced run, p50 per packet)"},
		{"trace.stage_sum_us", "us", "lower", 0, "reconciles with latency_p50_us (sum of the stage p50s)"},
		{"trace.decomposed_ratio", "ratio", "higher", 0, "validity of the trace.* stages (decomposed / sampled)"},
		{"trace.latency_p50_us", "us", "lower", 0, "tracing overhead: traced minus untraced latency_p50_us"},
		{"trace.untraced_latency_p50_us", "us", "lower", 0, "latency_p50_us of the same per-layer run, tracing off"},
		{"latency_p99_us", "us", "lower", 0, "tail of latency_p90_us (open loop; unbounded: rare host stalls set it run to run)"},
		{"gen.lag_p99_us", "us", "lower", 0, "benchmark validity (open-loop generator lateness)"},
		{"gen.build_ns", "ns/pkt", "lower", 0, "benchmark validity (packet build cost in the injector)"},
	}...)
}

// results collects measured values by catalogue name.
type results map[string]float64
