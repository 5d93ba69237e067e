package main

// metricDef declares one metric the binary prints. The same tables are
// checked in as BENCHMARK.json; lint_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees and the benchmark
// gates on; every workload prints all of them (untraced pass only). The
// heap and the protocol statistics may worsen by a twentieth. setup_s is
// the one host-time metric here, because the contract requires it, with
// the contract's largest bound: no time taken on a shared host repeats
// within a tenth (README, "What is gated"), so the speeds are per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"bytes_per_node_period", "B", "lower", 0.05},
	{"hash_checks_per_node_period", "1", "lower", 0.05},
}

// demoted are the per-layer metrics the issue listed end to end: the
// speeds, which did not repeat within a tenth, and the control group's
// discovery time, which varies by a quarter from seed to seed. Every run
// measures them; the untraced pass prints them as info lines, and -aa
// tabulates them without a verdict.
var demoted = map[string]bool{
	"core.discovery_median_periods": true,
	"cluster.node_periods_per_s":    true,
	"cluster.readout_answers_per_s": true,
	"cluster.readout_p50_us":        true,
	"cluster.readout_p90_us":        true,
	"service.node_periods_per_s":    true,
	"service.answers_per_s":         true,
	"service.query_p50_us":          true,
	"service.query_p90_us":          true,
}

// perLayer are the single-layer metrics of the traced pass, named
// layer.metric. A layer that does no work on a workload (the simulator
// layers on fleet_*, the network stack on sim_*) reads 0 there.
var perLayer = []metricDef{
	// hashing: isolated replays over pairs drawn from 2000 ids, plus the
	// traced cluster's own memo counters.
	{"hashing.related_md5_ns", "ns", "lower", 0},
	{"hashing.related_sha1_ns", "ns", "lower", 0},
	{"hashing.related_fast_ns", "ns", "lower", 0},
	{"hashing.memo_hit_ns", "ns", "lower", 0},
	{"hashing.memo_miss_ns", "ns", "lower", 0},
	{"hashing.memo_hit_ratio", "1", "higher", 0},
	{"hashing.memo_live_mb", "MB", "lower", 0},
	// sim: the event engine.
	{"sim.post_pop_ns_depth1e3", "ns", "lower", 0},
	{"sim.post_pop_ns_depth1e5", "ns", "lower", 0},
	{"sim.ticker_ns", "ns", "lower", 0},
	{"sim.sharded2_window_ns", "ns", "lower", 0},
	{"sim.sharded2_barriers_per_window", "1", "lower", 0},
	{"sim.events_per_node_period", "1", "lower", 0},
	// simnet: the simulated network.
	{"simnet.send_deliver_ns", "ns", "lower", 0},
	{"simnet.random_alive_ns", "ns", "lower", 0},
	{"simnet.msgs_per_event", "1", "lower", 0},
	// core: the protocol node.
	{"core.handle_ping_ns", "ns", "lower", 0},
	{"core.handle_cvfetch_ns", "ns", "lower", 0},
	{"core.handle_cvresp_ns_cvs27", "ns", "lower", 0},
	{"core.handle_cvresp_ns_cvs48", "ns", "lower", 0},
	{"core.cvresp_hash_checks_cvs27", "1", "lower", 0},
	{"core.cvresp_hash_checks_cvs48", "1", "lower", 0},
	{"core.handle_notify_ns", "ns", "lower", 0},
	{"core.handle_monping_ns", "ns", "lower", 0},
	{"core.handle_monack_ns", "ns", "lower", 0},
	{"core.tick_ns", "ns", "lower", 0},
	{"core.monitor_tick_ns", "ns", "lower", 0},
	{"core.verify_report_md5_ns", "ns", "lower", 0},
	{"core.verify_report_fast_ns", "ns", "lower", 0},
	{"core.discovery_median_periods", "periods", "lower", 0},
	{"core.hash_checks_per_event", "1", "lower", 0},
	{"core.memory_entries_mean", "1", "lower", 0},
	// cluster: the simulation harness around them.
	{"cluster.new_us_per_node", "us", "lower", 0},
	{"cluster.node_periods_per_s", "1/s", "higher", 0},
	{"cluster.readout_answers_per_s", "1/s", "higher", 0},
	{"cluster.readout_p50_us", "us", "lower", 0},
	{"cluster.readout_p90_us", "us", "lower", 0},
	{"cluster.run_ns_per_event", "ns", "lower", 0},
	{"cluster.stats_ns_per_node", "ns", "lower", 0},
	{"cluster.alloc_bytes_per_event", "B", "lower", 0},
	{"cluster.gc_count", "count", "lower", 0},
	{"cluster.unattributed_ns_per_event", "ns", "lower", 0},
	// netstack: the wire codec and the UDP socket (127.0.0.1 loopback).
	{"netstack.encode_ping_ns", "ns", "lower", 0},
	{"netstack.decode_ping_ns", "ns", "lower", 0},
	{"netstack.encode_cvresp_ns", "ns", "lower", 0},
	{"netstack.decode_cvresp_ns", "ns", "lower", 0},
	{"netstack.encode_availbatch16_ns", "ns", "lower", 0},
	{"netstack.decode_availbatch16_ns", "ns", "lower", 0},
	{"netstack.encode_allocs", "count", "lower", 0},
	{"netstack.decode_allocs", "count", "lower", 0},
	{"netstack.udp_roundtrip_us", "us", "lower", 0},
	// memnet: the in-process loopback network.
	{"memnet.hop_us", "us", "lower", 0},
	{"memnet.hops_per_s", "1/s", "higher", 0},
	{"memnet.datagrams_per_node_period", "1", "lower", 0},
	{"memnet.loss_drops", "count", "lower", 0},
	{"memnet.unroutable_drops", "count", "lower", 0},
	{"memnet.inbox_overflows", "count", "lower", 0},
	// service: the live node, seen through the tracing Transport wrapper.
	{"service.handle_ns", "ns", "lower", 0},
	{"service.handle_availbatch_ns", "ns", "lower", 0},
	{"service.handle_report_ns", "ns", "lower", 0},
	{"service.send_ns", "ns", "lower", 0},
	{"service.node_periods_per_s", "1/s", "higher", 0},
	{"service.answers_per_s", "1/s", "higher", 0},
	{"service.query_p50_us", "us", "lower", 0},
	{"service.query_p90_us", "us", "lower", 0},
	{"service.query_p99_us", "us", "lower", 0},
	{"service.query_single_us", "us", "lower", 0},
	{"service.wire_bytes_per_answer", "B", "lower", 0},
	{"service.allocs_per_answer", "count", "lower", 0},
	{"service.cpu_us_per_node_period", "us", "lower", 0},
	{"service.dropped_responses", "count", "lower", 0},
	{"service.stats_ns", "ns", "lower", 0},
	// querycache: the bounded answer cache.
	{"querycache.get_hit_ns", "ns", "lower", 0},
	{"querycache.get_miss_ns", "ns", "lower", 0},
	{"querycache.put_ns", "ns", "lower", 0},
	{"querycache.hit_ratio", "1", "higher", 0},
	{"querycache.flushes", "count", "lower", 0},
	{"querycache.hit_answers_per_s", "1/s", "higher", 0},
	// observer: the zero-perturbation scraper.
	{"observer.scrape_ns_per_target", "ns", "lower", 0},
	// the tracer itself.
	{"trace.overhead_pct", "%", "lower", 0},
}
