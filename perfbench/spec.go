package main

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same metrics with the same units and
// directions; TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricSpec struct {
	name, unit, better string
	// group is the layer group a per-layer metric belongs to. A
	// workload that does not exercise a group takes that group's
	// figures from a calibration run (see calibrationOrder).
	group string
}

// Layer groups of the per-layer metrics.
const (
	groupAll        = "all"        // measured by every workload itself
	groupEAS        = "eas"        // Runtime.ParallelForCtx glue
	groupAdmission  = "admission"  // legacy FIFO gate
	groupTiered     = "tiered"     // tiered admission controller
	groupTable      = "table"      // α-table hit/miss mix
	groupDecide     = "decide"     // profile, wclass, α search
	groupEngine     = "engine"     // simulated execution
	groupRobust     = "robust"     // robust energy meter
	groupObs        = "obs"        // Observer cost and export
	groupFunctional = "functional" // ws pool, cl queue, real apps
	groupEval       = "eval"       // sched strategies, par fan-out
	groupLoadgen    = "loadgen"    // the serve load generator itself
)

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops", unit: "1/s", better: "higher"},
	{name: "latency_p50_us", unit: "us", better: "lower"},
	{name: "latency_p90_us", unit: "us", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "passed_pct", unit: "%", better: "higher"},
	{name: "sim_edp_per_op", unit: "J.s", better: "lower"},
	{name: "oracle_pct.desktop_edp", unit: "%", better: "higher"},
	{name: "oracle_pct.desktop_energy", unit: "%", better: "higher"},
	{name: "oracle_pct.tablet_edp", unit: "%", better: "higher"},
	{name: "oracle_pct.tablet_energy", unit: "%", better: "higher"},
}

// perLayer lists the metrics every workload reports with --trace 1.
var perLayer = []metricSpec{
	{name: "eas.invoke_ns", unit: "ns", better: "lower", group: groupEAS},
	{name: "eas.unattributed_ns", unit: "ns", better: "lower", group: groupEAS},
	{name: "admission.acquire_ns", unit: "ns", better: "lower", group: groupAdmission},
	{name: "admission.tiered_acquire_ns", unit: "ns", better: "lower", group: groupTiered},
	{name: "table.profiled_pct", unit: "%", better: "lower", group: groupTable},
	{name: "table.small_n_pct", unit: "%", better: "lower", group: groupTable},
	{name: "profile.step_ns", unit: "ns", better: "lower", group: groupDecide},
	{name: "profile.steps_per_op", unit: "count", better: "lower", group: groupDecide},
	{name: "wclass.classify_ns", unit: "ns", better: "lower", group: groupDecide},
	{name: "alpha.search_ns", unit: "ns", better: "lower", group: groupDecide},
	{name: "alpha.searches_per_op", unit: "count", better: "lower", group: groupDecide},
	{name: "engine.run_ns", unit: "ns", better: "lower", group: groupEngine},
	{name: "engine.runs_per_op", unit: "count", better: "lower", group: groupEngine},
	{name: "robust.measure_ns", unit: "ns", better: "lower", group: groupRobust},
	{name: "obs.cost_ns_per_op", unit: "ns", better: "lower", group: groupObs},
	{name: "obs.export_ms", unit: "ms", better: "lower", group: groupObs},
	{name: "ws.parallel_for_ns", unit: "ns", better: "lower", group: groupFunctional},
	{name: "ws.steals_per_op", unit: "count", better: "lower", group: groupFunctional},
	{name: "ws.parks_per_op", unit: "count", better: "lower", group: groupFunctional},
	{name: "cl.dispatch_ns", unit: "ns", better: "lower", group: groupFunctional},
	{name: "cl.enqueues_per_op", unit: "count", better: "lower", group: groupFunctional},
	{name: "apps.pool_only_s", unit: "s", better: "lower", group: groupFunctional},
	{name: "apps.sched_overhead_pct", unit: "%", better: "lower", group: groupFunctional},
	{name: "apps.input_build_ms", unit: "ms", better: "lower", group: groupFunctional},
	{name: "sched.oracle_s", unit: "s", better: "lower", group: groupEval},
	{name: "sched.eas_s", unit: "s", better: "lower", group: groupEval},
	{name: "sched.perf_s", unit: "s", better: "lower", group: groupEval},
	{name: "sched.fixed_s", unit: "s", better: "lower", group: groupEval},
	{name: "par.speedup", unit: "x", better: "higher", group: groupEval},
	{name: "loadgen.ns_per_req", unit: "ns", better: "lower", group: groupLoadgen},
	{name: "loadgen.allocs_per_req", unit: "count", better: "lower", group: groupLoadgen},
	{name: "powerchar.characterize_ms", unit: "ms", better: "lower", group: groupAll},
	{name: "go.bytes_per_op", unit: "B", better: "lower", group: groupAll},
	{name: "go.gc_cycles_per_kop", unit: "count", better: "lower", group: groupAll},
	{name: "trace.overhead_pct", unit: "%", better: "lower", group: groupAll},
}

// Span names: one per layer boundary the benchmark times.
const (
	spanInvoke        = "eas.invoke"
	spanAcquire       = "admission.acquire"
	spanTieredAcquire = "admission.tiered_acquire"
	spanProfileStep   = "profile.step"
	spanClassify      = "wclass.classify"
	spanAlphaSearch   = "alpha.search"
	spanEngineRun     = "engine.run"
	spanRobustMeasure = "robust.measure"
	spanWSParallelFor = "ws.parallel_for"
	spanCLDispatch    = "cl.dispatch"
	spanObsExport     = "obs.export"
	spanCharacterize  = "powerchar.characterize"
	spanInputBuild    = "workloads.build"
	spanAppRun        = "apps.run"
	spanPoolRun       = "apps.pool_run"
	spanSchedPrefix   = "sched."
)
