package main

// layerMetric names one per-layer metric of the traced run. The list is the
// single source for the per_layer section of BENCHMARK.json (a test holds
// the two in step).
type layerMetric struct {
	Name, Unit, Better string
}

// layerMetrics lists every per-layer metric. In-process figures are means
// per operation; serving figures come from the client side of the HTTP
// API, from job status and result bodies, and from /metrics deltas.
var layerMetrics = []layerMetric{
	// Chip I/O under discovery and collection (recover-sweep).
	{"ondie.read_rows", "rows/op", "lower"},
	{"ondie.read_ms", "ms/op", "lower"},
	{"ondie.write_rows", "rows/op", "lower"},
	{"ondie.write_ms", "ms/op", "lower"},
	{"discover.ms", "ms/op", "lower"},
	{"discover.self_ms", "ms/op", "lower"},
	{"collect.ms", "ms/op", "lower"},
	{"collect.self_ms", "ms/op", "lower"},
	{"collect.word_reads", "words/op", "lower"},
	{"threshold.ms", "ms/op", "lower"},
	{"threshold.entries_kept", "entries/op", "higher"},
	{"recover.self_ms", "ms/op", "lower"},
	// Solve stage (solve-exact, recover-sweep).
	{"solve.ms", "ms/op", "lower"},
	{"solve.determine_ms", "ms/op", "lower"},
	{"solve.uniqueness_ms", "ms/op", "lower"},
	{"solve.vars", "vars/op", "lower"},
	{"solve.clauses", "clauses/op", "lower"},
	{"solve.entries_used_frac", "fraction", "lower"},
	{"sat.conflicts", "count/op", "lower"},
	{"sat.decisions", "count/op", "lower"},
	{"sat.propagations", "count/op", "lower"},
	// Serving path (serve-mixed).
	{"http.submit_ms_p50", "ms", "lower"},
	{"http.submit_ms_p90", "ms", "lower"},
	{"http.status_ms_p50", "ms", "lower"},
	{"http.status_ms_p90", "ms", "lower"},
	{"http.result_ms_p50", "ms", "lower"},
	{"service.queue_ms_p50", "ms", "lower"},
	{"service.queue_ms_p90", "ms", "lower"},
	{"service.exec_ms_p50", "ms", "lower"},
	{"service.polls_per_job", "polls/job", "lower"},
	{"store.op_ms_mean", "ms", "lower"},
	{"service.collect_ms_p50", "ms", "lower"},
	{"service.solve_ms_p50", "ms", "lower"},
	{"service.dedupe_hits", "count", "higher"},
	{"service.solve_cache_hit_frac", "fraction", "higher"},
	{"planner.patterns_used_frac", "fraction", "lower"},
	{"loadgen.late_ms_p90", "ms", "lower"},
	{"loadgen.conns_max", "count", "lower"},
	// Validity of the run (every workload).
	{"trace.overhead_frac", "fraction", "lower"},
	{"outcome.unique_match", "count", "higher"},
	{"outcome.mismatch", "count", "lower"},
	{"outcome.ambiguous", "count", "lower"},
	{"outcome.unsat", "count", "lower"},
	{"outcome.error", "count", "lower"},
	{"fail_frac", "fraction", "lower"},
}

// zeroLayerMetrics returns every per-layer metric at 0, so a traced run
// reports the full set and layers a workload never reaches read 0.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.Name] = metric{0, lm.Unit}
	}
	return m
}
