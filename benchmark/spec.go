package main

// metricDef names one reported metric; BENCHMARK.json carries the same
// table and bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the checker or the daemon sees. Bound is the
// share of the parent's median by which the metric may worsen; every bound
// is the largest allowed because ten runs of one commit on the sandbox
// spread by 5-20% (README, "Measured steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"pass_s", "s", lower, 0.25},
	{"states_per_s", "1/s", higher, 0.25},
	{"job_p50_ms", "ms", lower, 0.25},
	{"job_tail_ms", "ms", lower, 0.25},
	{"jobs_per_s", "1/s", higher, 0.25},
}

// perLayer lists the traced run's metrics, one block per module. A metric a
// workload does not exercise reads 0 there.
var perLayer = layerDefs()

func layerDefs() []metricDef {
	defs := []metricDef{
		{Name: "trace_overhead_share", Unit: "share", Better: lower},
		{Name: "job_tail_percentile", Unit: "count", Better: higher},

		{Name: "pfs.new_ms", Unit: "ms", Better: lower},
		{Name: "pfs.snapshot_us", Unit: "us", Better: lower},
		{Name: "trace.record_ms", Unit: "ms", Better: lower},
		{Name: "trace.ops", Unit: "count", Better: lower},
		{Name: "trace.lowermost_ops", Unit: "count", Better: lower},

		{Name: "causality.build_ms", Unit: "ms", Better: lower},
		{Name: "causality.persist_order_ms", Unit: "ms", Better: lower},
		{Name: "causality.nodes", Unit: "count", Better: lower},

		{Name: "emulate.generate_ms", Unit: "ms", Better: lower},
		{Name: "emulate.us_per_state", Unit: "us", Better: lower},
		{Name: "emulate.states", Unit: "count", Better: lower},
		{Name: "emulate.fronts", Unit: "count", Better: lower},
	}
	// Crash-state replay through pfs.FileSystem, overall and per store kind.
	for _, kind := range []string{"pfs", "vfs", "blockdev"} {
		for _, m := range []string{"restore_us", "apply_us_per_op", "recover_us", "mount_us", "serialize_us"} {
			defs = append(defs, metricDef{Name: kind + "." + m, Unit: "us", Better: lower})
		}
	}
	for _, kind := range []string{"paracrash", "vfs", "blockdev"} {
		defs = append(defs, metricDef{Name: kind + ".digest_us", Unit: "us", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "models.preserved_sets_ms", Unit: "ms", Better: lower},
		metricDef{Name: "stack.replay_us", Unit: "us", Better: lower},
		metricDef{Name: "stack.state_us", Unit: "us", Better: lower},
		metricDef{Name: "engine.legal_pfs_states", Unit: "count", Better: lower},
		metricDef{Name: "engine.legal_lib_states", Unit: "count", Better: lower},

		metricDef{Name: "paracrash.run_ms", Unit: "ms", Better: lower},
		metricDef{Name: "phase.trace_ms", Unit: "ms", Better: lower},
		metricDef{Name: "phase.graph_ms", Unit: "ms", Better: lower},
		metricDef{Name: "phase.generate_ms", Unit: "ms", Better: lower},
		metricDef{Name: "phase.explore_ms", Unit: "ms", Better: lower},
		metricDef{Name: "obs.pfs_restore_ms", Unit: "ms", Better: lower},
		metricDef{Name: "obs.pfs_mount_ms", Unit: "ms", Better: lower},
		metricDef{Name: "obs.pfs_recover_ms", Unit: "ms", Better: lower},
		metricDef{Name: "explore.unattributed_share", Unit: "share", Better: lower},

		metricDef{Name: "engine.states_generated", Unit: "count", Better: lower},
		metricDef{Name: "engine.states_checked", Unit: "count", Better: lower},
		metricDef{Name: "engine.states_deduped", Unit: "count", Better: higher},
		metricDef{Name: "engine.states_pruned", Unit: "count", Better: higher},
		metricDef{Name: "engine.state_classes", Unit: "count", Better: lower},
		metricDef{Name: "engine.server_restores", Unit: "count", Better: lower},
		metricDef{Name: "engine.ops_replayed", Unit: "count", Better: lower},
		metricDef{Name: "engine.checked_share", Unit: "share", Better: lower},
		metricDef{Name: "engine.restores_per_state", Unit: "ratio", Better: lower},

		metricDef{Name: "engine.alloc_mb_per_pass", Unit: "MB", Better: lower},
		metricDef{Name: "engine.allocs_per_state", Unit: "count", Better: lower},
		metricDef{Name: "engine.gc_cpu_share", Unit: "share", Better: lower},
		metricDef{Name: "engine.peak_rss_mb", Unit: "MB", Better: lower},

		metricDef{Name: "parallel.speedup_w2", Unit: "ratio", Better: higher},
		metricDef{Name: "parallel.efficiency", Unit: "ratio", Better: higher},

		metricDef{Name: "serve.submit_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.queue_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.run_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.engine_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.run_overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.notify_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.fetch_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "serve.rejected_share", Unit: "share", Better: lower},

		metricDef{Name: "statefs.writes_per_job", Unit: "count", Better: lower},
		metricDef{Name: "statefs.write_us", Unit: "us", Better: lower},
		metricDef{Name: "statefs.append_us", Unit: "us", Better: lower},
	)
	return defs
}
