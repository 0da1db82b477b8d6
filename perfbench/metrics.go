package main

// def names one printed metric and its unit. BENCHMARK.json lists the
// same names; TestBenchmarkJSONMatches keeps the two in step.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees. Every
// workload reports every one, each in its workload's own terms:
//
//	throughput_per_s  collect: envelopes made durable per second, first
//	                  poll to Close returning; analyze: stored reports
//	                  per second of the analysis pass, Open to the last
//	                  core result; serve: completed requests per second
//	op_p75_us/p90_us  collect: one poll, fetch to durable checkpoint;
//	                  analyze: one Get of the skewed lookup stream;
//	                  serve: one request, from its scheduled start
//	bytes_per_op      collect and analyze: store bytes on disk per
//	                  report; serve: response bytes per request
//	ok_share          1 - failed/attempted; a failed check is a failure
//
// The latency pair is p75 and p90, not the median: analyze's lookup
// stream hits the history cache on a little under half of its Gets,
// by a share that varies with the seed, so its median sits on the
// edge between the microsecond hit path and the miss path and jumps
// between them from seed to seed. p75 lies inside the miss path.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_live_heap_mb", "MB"},
	{"ok_share", "share"},
	{"throughput_per_s", "1/s"},
	{"op_p75_us", "us"},
	{"op_p90_us", "us"},
	{"bytes_per_op", "B"},
}

// perLayer are the traced run's metrics. A workload that does not
// touch a layer reports 0 for it; that it stays 0 is the prediction.
var perLayer = []def{
	// collect -> throughput_per_s (and bytes_per_op for the block trio)
	{"vtclient.feed_busy_s", "s"},
	{"vtclient.feed_calls", "count"},
	{"vtclient.retries", "count"},
	{"vtapi.feed_handler_s", "s"},
	{"vtapi.feed_resp_bytes_per_envelope", "B"},
	{"feed.polls", "count"},
	{"feed.envelopes_per_poll", "count"},
	{"feed.self_s", "s"},
	{"store.put_batch_s", "s"},
	{"store.sync_s", "s"},
	{"store.syncs", "count"},
	{"store.close_s", "s"},
	{"store.blocks_cut", "count"},
	{"store.block_encode_s", "s"},
	{"store.block_compress_s", "s"},
	// analyze -> throughput_per_s
	{"store.open_s", "s"},
	{"store.scan_census_s", "s"},
	{"store.scan_flips_s", "s"},
	{"store.scan_window_s", "s"},
	{"store.scan_blocks", "count"},
	{"store.scan_blocks_pruned", "count"},
	{"store.scan_rows", "count"},
	{"core.series_s", "s"},
	{"core.flips_s", "s"},
	{"core.corr_s", "s"},
	// analyze -> throughput_per_s and op_p75_us/op_p90_us
	{"store.get_busy_s", "s"},
	{"store.gets", "count"},
	{"store.block_decodes_per_get", "count"},
	{"store.cache_hit_ratio", "share"},
	// serve -> op_p75_us/op_p90_us (with vtapi.feed_handler_s above)
	{"vtclient.upload_p50_ms", "ms"},
	{"vtclient.upload_p99_ms", "ms"},
	{"vtclient.report_p50_ms", "ms"},
	{"vtclient.report_p99_ms", "ms"},
	{"vtclient.rescan_p50_ms", "ms"},
	{"vtclient.rescan_p99_ms", "ms"},
	{"vtclient.feed_p50_ms", "ms"},
	{"vtclient.feed_p99_ms", "ms"},
	{"vtapi.upload_handler_s", "s"},
	{"vtapi.report_handler_s", "s"},
	{"vtapi.rescan_handler_s", "s"},
	{"vtapi.transport_wait_s", "s"},
	{"vtsim.scans", "count"},
	{"loadgen.sched_lag_max_ms", "ms"},
	// every workload: self time per layer per traced pass, and the
	// trace's own accounting
	{"bench.self_s", "s"},
	{"vtclient.self_s", "s"},
	{"vtapi.self_s", "s"},
	{"store.self_s", "s"},
	{"core.self_s", "s"},
	{"trace.identity_error", "share"},
	{"trace.overhead_share", "share"},
	{"trace.spans_per_pass", "count"},
}
