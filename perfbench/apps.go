package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/workloads"
	"github.com/hetsched/eas/internal/ws"
)

// appSpec is one functional Table 1 app at the benchmark's input size
// (the sizes of internal/workloads/bench_test.go) and at the tiny size
// of smoke runs. BarnesHut is left out: its Verify rejects the
// approximated forces of some seeded inputs on every executor,
// SerialExecutor included (seeds 2, 5, 10 and 11 at 4000 bodies), so
// it cannot run in a benchmark whose runs each take a new seed.
type appSpec struct {
	abbrev      string
	full, small func(seed int64) (workloads.Functional, error)
}

var appSpecs = []appSpec{
	{"BFS",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalBFS(300, 200, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalBFS(60, 40, s) }},
	{"CC",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalCC(120, 120, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalCC(30, 30, s) }},
	{"FD",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalFaceDetect(320, 240, 3, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalFaceDetect(160, 120, 1, s) }},
	{"MB",
		func(int64) (workloads.Functional, error) { return workloads.NewFunctionalMandelbrot(512, 384) },
		func(int64) (workloads.Functional, error) { return workloads.NewFunctionalMandelbrot(128, 96) }},
	{"SL",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSkipList(100000, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSkipList(5000, s) }},
	{"SP",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSSSP(120, 100, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSSSP(30, 25, s) }},
	{"BS",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalBlackscholes(200000, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalBlackscholes(10000, s) }},
	{"MM",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalMatMul(256, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalMatMul(64, s) }},
	{"NB",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalNBody(512, 2, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalNBody(128, 1, s) }},
	{"RT",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalRayTracer(256, 256, 64, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalRayTracer(64, 64, 8, s) }},
	{"SM",
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSeismic(256, 192, 25, s) },
		func(s int64) (workloads.Functional, error) { return workloads.NewFunctionalSeismic(64, 48, 5, s) }},
}

// appKernels returns each app's kernel: the name and per-item cost of
// the first invocation of its Table 1 descriptor's desktop schedule.
func appKernels(seed int64) ([]eas.Kernel, error) {
	ks := make([]eas.Kernel, len(appSpecs))
	for i, a := range appSpecs {
		w, ok := workloads.ByAbbrev(a.abbrev)
		if !ok {
			return nil, fmt.Errorf("no Table 1 workload %q", a.abbrev)
		}
		sched, err := w.Schedule("desktop", seed)
		if err != nil {
			return nil, err
		}
		c := sched[0].Kernel.Cost
		ks[i] = eas.Kernel{
			Name:                sched[0].Kernel.Name,
			FLOPsPerItem:        c.FLOPs,
			MemOpsPerItem:       c.MemOps,
			L3MissRatio:         c.L3MissRatio,
			Divergence:          c.Divergence,
			InstructionsPerItem: c.Instructions,
		}
	}
	return ks, nil
}

// buildApps generates every app's input from the seed; span-timed when
// traced.
func buildApps(p params, rec *recorder) ([]workloads.Functional, error) {
	fs := make([]workloads.Functional, len(appSpecs))
	for i, a := range appSpecs {
		build := a.full
		if p.tiny {
			build = a.small
		}
		h := rec.begin(spanInputBuild, -1, -1)
		f, err := build(p.seed)
		rec.end(h)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", a.abbrev, err)
		}
		fs[i] = f
	}
	return fs, nil
}

// invocationLog collects the Reports of one pass's runtime invocations.
type invocationLog struct {
	invocations, profiled, steps, smallN int
	edp                                  float64
}

// runtimeExecutor is the workloads.Executor that sends every parallel
// loop of an app through Runtime.ParallelForCtx with the app's Table 1
// kernel cost and its real body.
type runtimeExecutor struct {
	rt          *eas.Runtime
	k           eas.Kernel
	profileSize int
	log         *invocationLog
	// Tracing: each invocation gets an eas.invoke span under the app's
	// span, followed by the replay of its layer calls.
	rec    *recorder
	rp     *replayer
	parent int32
	nextID *int64
}

func (e *runtimeExecutor) ParallelFor(n int, body func(i int)) error {
	k := e.k
	k.Body = body
	var id int64
	if e.nextID != nil {
		*e.nextID++
		id = *e.nextID
	}
	h := e.rec.begin(spanInvoke, id, e.parent)
	rep, err := e.rt.ParallelForCtx(context.Background(), k, n)
	e.rec.end(h)
	if err != nil {
		return err
	}
	lg := e.log
	lg.invocations++
	lg.edp += rep.MetricValue
	if rep.Profiled {
		lg.profiled++
		lg.steps += rep.ProfileSteps
	}
	if n < e.profileSize {
		lg.smallN++
	}
	if err := checkReport(rep, n); err != nil {
		// Fails the app's Run, so the verified app counts as failed.
		return fmt.Errorf("%s invocation n=%d: %w", k.Name, n, err)
	}
	if e.rp != nil {
		return e.rp.replay(id, h, k, n, rep, core.AdmitRequest{})
	}
	return nil
}

// appsPass is one pass's record: every app run and verified once, with
// the summed Run time net of host steal. Build and verification are
// outside the timed part.
type appsPass struct {
	runTime   time.Duration
	appTimes  []float64 // ns per app, in appSpecs order
	buildTime time.Duration
	heap      heapSample
	ops       int
	failed    int
	first     error
}

func (ps appsPass) tally() (checked, failed int, first error) { return ps.ops, ps.failed, ps.first }

// runAppsPass builds every app's input, then runs each app on ex(i)
// inside a parentSpan span and verifies it.
func runAppsPass(p params, rec *recorder, ex func(i int) workloads.Executor, parentSpan string) appsPass {
	var ps appsPass
	// Collect the previous pass's inputs first, so the peak resident set
	// is one pass's working set, not a GC-timing-dependent two.
	runtime.GC()
	bstart := time.Now()
	fs, err := buildApps(p, rec)
	ps.buildTime = time.Since(bstart)
	if err != nil {
		ps.ops, ps.failed, ps.first = len(appSpecs), len(appSpecs), err
		return ps
	}
	for i, f := range fs {
		x := ex(i)
		h := rec.begin(parentSpan, -1, -1)
		if re, ok := x.(*runtimeExecutor); ok {
			re.parent = h
		}
		h0 := readHeap()
		t := startTimer()
		err := f.Run(x)
		d := t.elapsed()
		ps.runTime += d
		ps.appTimes = append(ps.appTimes, float64(d))
		h1 := readHeap()
		rec.end(h)
		ps.heap.allocs += h1.allocs - h0.allocs
		ps.heap.bytes += h1.bytes - h0.bytes
		ps.heap.gcs += h1.gcs - h0.gcs
		if err == nil {
			err = f.Verify()
		}
		ps.ops++
		if err != nil {
			ps.failed++
			if ps.first == nil {
				ps.first = fmt.Errorf("app %s: %w", f.Name(), err)
			}
		}
	}
	return ps
}

// appsSetup is one repetition of the apps set-up: characterize, build
// the runtime and every app input, profile every app kernel once,
// close.
func appsSetup(p params, ks []eas.Kernel, rec *recorder) error {
	if _, err := characterize(rec, "desktop"); err != nil {
		return err
	}
	plat := eas.DesktopPlatform()
	model, err := eas.Characterize(plat)
	if err != nil {
		return err
	}
	rt, err := eas.NewRuntime(plat, eas.Config{Model: model, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if _, err := buildApps(p, rec); err != nil {
		rt.Close()
		return err
	}
	n := 2 * plat.GPUProfileSize()
	for _, k := range ks {
		rep, err := rt.ParallelFor(k, n)
		if err == nil {
			err = checkReport(rep, n)
		}
		if err != nil {
			rt.Close()
			return fmt.Errorf("first touch of %s: %w", k.Name, err)
		}
	}
	return rt.Close()
}

func runApps(p params) (*outcome, error) {
	out := newOutcome()
	out.owns(groupEAS, groupAdmission, groupTable, groupDecide, groupEngine, groupFunctional)
	ks, err := appKernels(p.seed)
	if err != nil {
		return nil, err
	}
	setupRec := p.newRecorder(-1)
	setup, err := medianSetup(p.setupReps(), func() error { return appsSetup(p, ks, setupRec) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.e2e["setup_s"] = setup

	plat := eas.DesktopPlatform()
	model, err := eas.Characterize(plat)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	rt, err := eas.NewRuntime(plat, eas.Config{Model: model, Workers: workers})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	viaRuntime := func(lg *invocationLog, rec *recorder, rp *replayer, nextID *int64) func(i int) workloads.Executor {
		return func(i int) workloads.Executor {
			return &runtimeExecutor{rt: rt, k: ks[i], profileSize: plat.GPUProfileSize(), log: lg, rec: rec, rp: rp, nextID: nextID}
		}
	}

	// The traced run replays every invocation on the benchmark's own
	// layer instances, including an empty-body dispatch of its split,
	// from the warm-up on, where each app kernel is first profiled.
	var rec *recorder
	var rp *replayer
	var id int64
	if p.trace {
		imodel, err := characterize(nil, "desktop")
		if err != nil {
			return nil, err
		}
		rec = p.newRecorder(0)
		if rp, err = newReplayer(rec, imodel, replayOptions{functional: true, workers: workers}); err != nil {
			return nil, err
		}
	}

	// Warm-up fills the α table; the first pass after it is the
	// deterministic one: the same invocations in the same order on the
	// same platform state in every run.
	var warm invocationLog
	out.tally(runAppsPass(p, rec, viaRuntime(&warm, rec, rp, &id), spanAppRun).tally())

	var passLat, buildMS []float64
	byApp := make([][]float64, len(appSpecs))
	var runTotal time.Duration
	var heap heapSample
	ops := 0
	startPeakRSS()
	steal0 := stealTicks()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < p.duration(); pass++ {
		var lg invocationLog
		ps := runAppsPass(p, nil, viaRuntime(&lg, nil, nil, nil), spanAppRun)
		out.tally(ps.tally())
		if pass == 0 {
			out.e2e["sim_edp_per_op"] = lg.edp / float64(ps.ops)
			out.layers["table.profiled_pct"] = 100 * float64(lg.profiled) / float64(lg.invocations)
			out.layers["table.small_n_pct"] = 100 * float64(lg.smallN) / float64(lg.invocations)
			out.layers["profile.steps_per_op"] = float64(lg.steps) / float64(ps.ops)
			out.layers["alpha.searches_per_op"] = float64(lg.profiled) / float64(ps.ops)
			out.layers["engine.runs_per_op"] = float64(lg.invocations+lg.steps) / float64(ps.ops)
		}
		passLat = append(passLat, float64(ps.runTime)/float64(ps.ops))
		for i, d := range ps.appTimes {
			byApp[i] = append(byApp[i], d)
		}
		buildMS = append(buildMS, float64(ps.buildTime)/1e6)
		runTotal += ps.runTime
		heap.allocs += ps.heap.allocs
		heap.bytes += ps.heap.bytes
		heap.gcs += ps.heap.gcs
		ops += ps.ops
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	// Throughput is that of the median pass. Latency percentiles are
	// taken per app, over passes of the same input, and combined by
	// geometric mean: no percentile spans apps of different sizes.
	out.e2e["throughput_ops"] = 1e9 / median(passLat)
	out.e2e["latency_p50_us"] = kindPercentile(byApp, 0.5) / 1e3
	out.e2e["latency_p90_us"] = kindPercentile(byApp, 0.9) / 1e3
	out.e2e["allocs_per_op"] = float64(heap.allocs) / float64(ops)
	out.layers["go.bytes_per_op"] = float64(heap.bytes) / float64(ops)
	out.layers["go.gc_cycles_per_kop"] = 1000 * float64(heap.gcs) / float64(ops)
	out.layers["apps.input_build_ms"] = median(buildMS)
	out.notef("apps: %d passes of %d verified apps, %.2fs running, host steal %.1f%%",
		len(passLat), len(appSpecs), runTotal.Seconds(), stealPct(steal0, time.Since(start)))
	if !p.trace {
		return out, out.addQuality(p)
	}

	var traced time.Duration
	tracedOps := 0
	ws0, cl0 := rp.pool.Stats(), rp.queue.Stats()
	for pass := 0; pass < p.tracedPasses(); pass++ {
		var lg invocationLog
		ps := runAppsPass(p, rec, viaRuntime(&lg, rec, rp, &id), spanAppRun)
		out.tally(ps.tally())
		traced += ps.runTime
		tracedOps += ps.ops
	}
	out.layers["trace.overhead_pct"] = 100 * (out.e2e["throughput_ops"]/(float64(tracedOps)/traced.Seconds()) - 1)
	ws1 := rp.pool.Stats()
	out.layers["ws.steals_per_op"] = float64(ws1.Steals-ws0.Steals) / float64(tracedOps)
	out.layers["ws.parks_per_op"] = float64(ws1.Parks-ws0.Parks) / float64(tracedOps)
	out.layers["cl.enqueues_per_op"] = float64(rp.queue.Stats().Enqueues-cl0.Enqueues) / float64(tracedOps)
	out.mismatches += rp.mismatches

	// The floor: the same apps on a plain work-stealing pool.
	pool := workloads.PoolExecutor{Pool: ws.NewPool(workers)}
	var poolTimes []float64
	for pass := 0; pass < 2; pass++ {
		ps := runAppsPass(p, rec, func(int) workloads.Executor { return pool }, spanPoolRun)
		out.tally(ps.tally())
		poolTimes = append(poolTimes, ps.runTime.Seconds())
	}
	poolOnly := mean(poolTimes)
	out.layers["apps.pool_only_s"] = poolOnly
	out.layers["apps.sched_overhead_pct"] = 100 * (runTotal.Seconds()/float64(len(passLat))/poolOnly - 1)

	totals := newLayerTotals()
	totals.add(setupRec.spansOrNil())
	totals.add(rec.spans)
	out.recs = append(out.recs, setupRec, rec)
	out.fromTotals(totals)
	return out, nil
}
