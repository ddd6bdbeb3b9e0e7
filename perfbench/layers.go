package main

// layerMetric is one per-layer metric of the traced run. moves records the
// end-to-end metric and workload a change to this layer should move; where
// a layer is bypassed the prediction is no change, and the metric reads 0.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// layerMetrics is the per-layer metric set, in BENCHMARK.json order.
// "probe" marks numbers the benchmark measures by calling the layer directly
// on the workload's own staged blocks rather than inside the engine.
// Disk numbers are reads and writes through the page cache, not device
// bandwidth.
var layerMetrics = []layerMetric{
	// sparse
	{"sparse.decode_ms_per_iter", "ms", "lower", "probe; cpu_ms_per_iter and iter_ms_p50 on spmv-ooc, op_ms_p50 (solve) on lanczos-spill, op_ms_p50 (job) on service-jobs"},
	{"sparse.decode_mb_per_s", "MB/s", "higher", "probe; as sparse.decode_ms_per_iter"},
	{"sparse.kernel_ms_per_iter", "ms", "lower", "probe; as sparse.decode_ms_per_iter, smaller share"},
	{"sparse.kernel_gflops", "GFLOP/s", "higher", "probe at the engine's pool width; as sparse.kernel_ms_per_iter"},
	{"sparse.kernel_gbps_computed", "GB/s", "higher", "probe; matrix and vector bytes the kernel must touch per second"},
	{"sparse.kernel_gflops_1t", "GFLOP/s", "higher", "probe at pool width 1, the single-threaded baseline"},
	// storage
	{"storage.disk_read_mb_per_iter", "MB", "lower", "page-cache reads; iter_ms_p50 on spmv-ooc; flat on service-jobs"},
	{"storage.reload_ratio", "ratio", "lower", "iter_ms_p50 on spmv-ooc; flat on service-jobs"},
	{"storage.prefetch_useful_ratio", "ratio", "higher", "iter_ms_p50 on spmv-ooc; 0 on service-jobs (prefetch off)"},
	{"storage.cache_hit_ratio", "ratio", "higher", "iter_ms_p50 on spmv-ooc; flat on service-jobs"},
	{"storage.evictions_per_iter", "count", "lower", "iter_ms_p50 on spmv-ooc; flat on service-jobs"},
	{"storage.io_busy_ms_per_iter", "ms", "lower", "iter_ms_p50 on spmv-ooc"},
	{"storage.lease_wait_ms_per_iter", "ms", "lower", "iter_ms_p50 on spmv-ooc"},
	{"storage.basis_append_ms_per_step", "ms", "lower", "op_ms_p50 (solve) on lanczos-spill; 0 elsewhere"},
	{"storage.basis_read_ms_per_step", "ms", "lower", "op_ms_p50 (solve) on lanczos-spill; 0 elsewhere"},
	{"storage.disk_write_mb_per_step", "MB", "lower", "page-cache writes; op_ms_p50 (solve) on lanczos-spill"},
	// scheduler
	{"scheduler.reorders_per_iter", "count", "higher", "storage.reload_ratio, and through it iter_ms_p50 on spmv-ooc; 0 on service-jobs"},
	{"scheduler.prefetch_refs_per_iter", "count", "higher", "storage.reload_ratio, and through it iter_ms_p50 on spmv-ooc; 0 on service-jobs"},
	// core
	{"core.worker_busy_ratio", "ratio", "higher", "iter_ms_p50 and cpu_ms_per_iter on spmv-ooc"},
	{"core.queue_wait_ms_per_iter", "ms", "lower", "iter_ms_p50 and cpu_ms_per_iter on spmv-ooc"},
	{"core.multiply_ms_p50", "ms", "lower", "iter_ms_p50 and cpu_ms_per_iter on spmv-ooc"},
	{"core.sum_ms_per_iter", "ms", "lower", "iter_ms_p50 and cpu_ms_per_iter on spmv-ooc"},
	{"core.apply_ms_p50", "ms", "lower", "op_ms_p50 (solve) on lanczos-spill; negligible per iteration on spmv-ooc"},
	{"core.run_overhead_ms_per_apply", "ms", "lower", "op_ms_p50 (solve) on lanczos-spill; negligible per iteration on spmv-ooc"},
	// lanczos
	{"lanczos.solver_ms_per_step", "ms", "lower", "op_ms_p50 (solve) on lanczos-spill; 0 elsewhere"},
	// remote and jobs
	{"remote.submit_ms_p50", "ms", "lower", "op_ms_p50/op_ms_p90 (job) and ops_per_s on service-jobs only"},
	{"remote.result_ms_p50", "ms", "lower", "op_ms_p50/op_ms_p90 (job) and ops_per_s on service-jobs only"},
	{"remote.client_bytes_in_per_job", "bytes", "lower", "op_ms_p50 (job) on service-jobs only"},
	{"jobs.queue_wait_ms_p50", "ms", "lower", "op_ms_p50/op_ms_p90 (job) and ops_per_s on service-jobs only"},
	{"jobs.run_ms_p50", "ms", "lower", "op_ms_p50/op_ms_p90 (job) and ops_per_s on service-jobs only"},
	{"jobs.overhead_ms_p50", "ms", "lower", "op_ms_p50/op_ms_p90 (job) and ops_per_s on service-jobs only"},
	// proxy and service
	{"proxy.handles_live_end", "count", "lower", "op_ms_p90 and peak_rss_mb on service-jobs (retained by-value results)"},
	{"service.latency_drift_ratio", "ratio", "lower", "op_ms_p90 and peak_rss_mb on service-jobs"},
	// runtime (in-process workloads; 0 on service-jobs, whose server runs out of process)
	{"runtime.alloc_mb_per_iter", "MB", "lower", "cpu_ms_per_iter and peak_rss_mb on spmv-ooc and lanczos-spill"},
	{"runtime.gc_pause_ms_per_iter", "ms", "lower", "cpu_ms_per_iter on spmv-ooc and lanczos-spill"},
	// tracing
	{"trace.overhead_ratio", "ratio", "lower", "none: traced over untraced iter_ms_p50 of the same run"},
	// The traced wall split: buckets plus other sum to split.wall_ms_per_iter.
	{"split.wall_ms_per_iter", "ms", "lower", "traced wall per SpMV iteration"},
	{"split.engine_compute_ms_per_iter", "ms", "lower", "core+sparse: some engine task running and not waiting on a lease"},
	{"split.lease_wait_ms_per_iter", "ms", "lower", "storage: every running task waiting on a lease grant"},
	{"split.io_exposed_ms_per_iter", "ms", "lower", "storage: no task running, a load or spill in flight"},
	{"split.engine_idle_ms_per_iter", "ms", "lower", "core/scheduler: inside the task envelope, nothing running"},
	{"split.run_overhead_ms_per_iter", "ms", "lower", "core: engine call time outside the task envelope"},
	{"split.basis_io_ms_per_iter", "ms", "lower", "storage: spilled-basis append and read (lanczos-spill)"},
	{"split.solver_ms_per_iter", "ms", "lower", "lanczos: reorthogonalization and tridiagonal work"},
	{"split.submit_ms_per_iter", "ms", "lower", "remote: SubmitJob round trip (service-jobs)"},
	{"split.queue_ms_per_iter", "ms", "lower", "jobs: queue wait (service-jobs)"},
	{"split.job_overhead_ms_per_iter", "ms", "lower", "remote+jobs+proxy: result wait beyond queue and run (service-jobs)"},
	{"split.other_ms_per_iter", "ms", "lower", "remainder: traced wall not covered by any bucket"},
}

// splitMetric maps a split bucket to its metric name.
func splitMetric(bucket string) string { return "split." + bucket + "_ms_per_iter" }

// splitLayers names, per bucket, the repo module it measures.
var splitLayers = map[string]string{
	"engine_compute": "core+sparse",
	"lease_wait":     "storage",
	"io_exposed":     "storage",
	"engine_idle":    "scheduler",
	"run_overhead":   "core",
	"basis_io":       "storage",
	"solver":         "lanczos",
	"submit":         "remote",
	"queue":          "jobs",
	"job_overhead":   "remote+jobs",
	"other":          "-",
}

// splitOrder is the print order of the split buckets.
var splitOrder = []string{"engine_compute", "lease_wait", "io_exposed", "engine_idle", "run_overhead",
	"basis_io", "solver", "submit", "queue", "job_overhead", "other"}

// makeSplit turns bucket totals (ms) into per-iteration rows and split
// metrics, with the other remainder computed from the traced wall, never
// clamped.
func makeSplit(metrics, totals map[string]float64, wallMs, iters float64) []bucket {
	rows := []bucket{{name: "wall", ms: wallMs / iters}}
	metrics["split.wall_ms_per_iter"] = wallMs / iters
	covered := 0.0
	for _, b := range splitOrder {
		if b == "other" {
			continue
		}
		covered += totals[b]
	}
	totals["other"] = wallMs - covered
	for _, b := range splitOrder {
		v := totals[b] / iters
		rows = append(rows, bucket{name: b, ms: v, layer: splitLayers[b]})
		metrics[splitMetric(b)] = v
	}
	return rows
}
