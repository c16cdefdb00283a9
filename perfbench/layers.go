package main

// layerSpecs are the -trace 1 metrics, in BENCHMARK.json's order. A
// metric of a layer the workload does not reach reads 0.
var layerSpecs = []struct{ name, unit string }{
	// Workload-specific end-to-end figures, from the untraced run.
	{"reorg_us_per_obj", "us"},
	{"scan_per_s", "1/s"},
	{"scan_p50_us", "us"},
	{"scan_p95_us", "us"},
	{"restart_s", "s"},
	// db: timed around the benchmark's own calls.
	{"db.begin_us_p50", "us"},
	{"db.begin_us_p95", "us"},
	{"db.lock_us_p50", "us"},
	{"db.lock_us_p95", "us"},
	{"db.read_us_p50", "us"},
	{"db.read_us_p95", "us"},
	{"db.update_us_p50", "us"},
	{"db.update_us_p95", "us"},
	{"db.commit_us_p50", "us"},
	{"db.commit_us_p95", "us"},
	{"db.checkpoint_ms", "ms"},
	// lock and wal: counter deltas over the window.
	{"lock.acquired_per_txn", "count"},
	{"lock.wait_ratio", "ratio"},
	{"lock.timeouts", "count"},
	{"wal.records_per_txn", "count"},
	// latch and wal sync: the program's obs histograms.
	{"latch.wait_us_p50", "us"},
	{"latch.wait_us_p95", "us"},
	{"wal.sync_us_p50", "us"},
	// storage: buffer-pool counter deltas.
	{"storage.pool_fault_rate", "ratio"},
	{"storage.evictions_per_txn", "count"},
	{"storage.hits_per_txn", "count"},
	{"oidmap.resolve_ns", "ns"},
	{"query.rows_per_scan", "count"},
	{"query.attempts_per_scan", "count"},
	// reorg and trt: fleet statistics and a TRT size poller.
	{"reorg.partition_s", "s"},
	{"reorg.parents_per_obj", "count"},
	{"reorg.retries", "count"},
	{"reorg.max_locks_held", "count"},
	{"reorg.trt_purged_per_obj", "count"},
	{"trt.peak_tuples", "count"},
	// client and server: the wire stack.
	{"client.read_us_p50", "us"},
	{"client.read_us_p95", "us"},
	{"client.update_us_p50", "us"},
	{"client.update_us_p95", "us"},
	{"client.commit_us_p50", "us"},
	{"client.commit_us_p95", "us"},
	{"client.retries", "count"},
	{"client.sheds", "count"},
	{"server.committed", "count"},
	{"server.aborted", "count"},
	{"server.shed_txns", "count"},
	// recovery: the restart of each wire-write round.
	{"recovery.records", "count"},
	{"recovery.records_per_s", "1/s"},
	{"recovery.capture_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics builds the -trace 1 metrics from an untraced and a traced
// run of the same workload.
func layerMetrics(base, traced *outcome) map[string]metric {
	m := make(map[string]metric, len(layerSpecs))
	for _, s := range layerSpecs {
		v, ok := base.specific[s.name]
		if !ok {
			v = traced.layers[s.name]
		}
		m[s.name] = metric{v, s.unit}
	}
	if p50 := base.txn.quantileUS(0.5); p50 > 0 {
		m["trace.overhead_pct"] = metric{(traced.txn.quantileUS(0.5)/p50 - 1) * 100, "%"}
	}
	return m
}
