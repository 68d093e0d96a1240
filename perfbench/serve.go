package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/workloads"
)

// callers is the closed loop's client count: two callers on the 2-CPU
// box the benchmark is sized for.
const callers = 2

// tinyInvocations is how many invocations of each Table 1 schedule a
// tiny run keeps.
const tinyInvocations = 24

// request is one pre-built serve request: everything the generator
// hands the runtime, built before timing starts.
type request struct {
	k    eas.Kernel
	n    int
	ctx  context.Context
	areq core.AdmitRequest
}

// traffic is one pass over the paper's desktop trace: the 12 Table 1
// schedules back to back, each invocation converted to a public
// eas.Kernel.
type traffic struct {
	reqs []request
	// firstTouch indexes one request per kernel name, the first large
	// enough to be profiled: the set-up path profiles each kernel once.
	firstTouch []int
	smallN     int // requests below the GPU profile size
}

var tenants = [...]string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// buildTraffic generates the serve trace from the seed. The schedules'
// per-invocation device speed factors are dropped: the public Kernel
// cannot carry them. Tenant and class are drawn per request index from
// the seed.
func buildTraffic(seed int64, tiny bool) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	profileSize := platform.Desktop().GPUProfileSize()
	tr := &traffic{}
	seen := map[string]bool{}
	for _, w := range workloads.ForPlatform("desktop") {
		sched, err := w.Schedule("desktop", seed)
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", w.Abbrev, err)
		}
		if tiny && len(sched) > tinyInvocations {
			sched = sched[:tinyInvocations]
		}
		for _, inv := range sched {
			c := inv.Kernel.Cost
			tenant, class := tenants[rng.Intn(len(tenants))], core.Class(rng.Intn(core.NumClasses))
			ctx := eas.WithClass(eas.WithTenant(context.Background(), tenant), eas.Class(class))
			tr.reqs = append(tr.reqs, request{
				k: eas.Kernel{
					Name:                inv.Kernel.Name,
					FLOPsPerItem:        c.FLOPs,
					MemOpsPerItem:       c.MemOps,
					L3MissRatio:         c.L3MissRatio,
					Divergence:          c.Divergence,
					InstructionsPerItem: c.Instructions,
				},
				n:    inv.N,
				ctx:  ctx,
				areq: core.AdmitRequest{Tenant: tenant, Class: class},
			})
			if inv.N < profileSize {
				tr.smallN++
			} else if !seen[inv.Kernel.Name] {
				seen[inv.Kernel.Name] = true
				tr.firstTouch = append(tr.firstTouch, len(tr.reqs)-1)
			}
		}
	}
	return tr, nil
}

// costOf returns a public kernel's per-item cost profile.
func costOf(k eas.Kernel) device.CostProfile {
	return device.CostProfile{
		FLOPs:        k.FLOPsPerItem,
		MemOps:       k.MemOpsPerItem,
		L3MissRatio:  k.L3MissRatio,
		Divergence:   k.Divergence,
		Instructions: k.InstructionsPerItem,
	}
}

// energyResolutionJ is the most by which the three RAPL domain
// readings of one invocation can exceed its package reading: each of
// the four counters rounds to its own energy unit.
var energyResolutionJ = func() float64 {
	p := platform.Desktop()
	return p.MSR.UnitJoules() + p.MSRPP0.UnitJoules() + p.MSRPP1.UnitJoules() + p.MSRDRAM.UnitJoules()
}()

// checkReport applies the serve correctness checks to one Report.
func checkReport(rep *eas.Report, n int) error {
	switch {
	case rep == nil:
		return fmt.Errorf("nil report")
	case !(rep.Alpha >= 0 && rep.Alpha <= 1):
		return fmt.Errorf("alpha %v outside [0,1]", rep.Alpha)
	case math.Abs(rep.CPUItems+rep.GPUItems-float64(n)) > 1e-6*float64(n)+1e-6:
		return fmt.Errorf("items %v+%v != n=%d", rep.CPUItems, rep.GPUItems, n)
	case !finitePositive(rep.EnergyJ):
		return fmt.Errorf("energy %v not finite and positive", rep.EnergyJ)
	case !finitePositive(rep.MetricValue):
		return fmt.Errorf("metric value %v not finite and positive", rep.MetricValue)
	case rep.CPUEnergyJ+rep.GPUEnergyJ+rep.DRAMEnergyJ > rep.EnergyJ+energyResolutionJ:
		return fmt.Errorf("domain energies %v+%v+%v exceed package %v beyond meter resolution",
			rep.CPUEnergyJ, rep.GPUEnergyJ, rep.DRAMEnergyJ, rep.EnergyJ)
	}
	return nil
}

// callFn is the callee of a request: Runtime.ParallelForCtx, or a no-op
// for the generator's dry run.
type callFn func(ctx context.Context, k eas.Kernel, n int) (*eas.Report, error)

type reply struct {
	rep    *eas.Report
	err    error
	invoke int32 // the request's eas.invoke span
}

// serveRequest is the body of one request goroutine, as a server handler
// would run it.
func serveRequest(call callFn, rq *request, ch chan<- reply, rec *recorder, id int64) {
	h := rec.begin(spanInvoke, id, -1)
	rep, err := call(rq.ctx, rq.k, rq.n)
	rec.end(h)
	ch <- reply{rep: rep, err: err, invoke: h}
}

// passState holds one pass's per-request results, indexed by request;
// callers write disjoint indices.
type passState struct {
	lat  []float64 // ns from starting the request goroutine to the reply
	reps []*eas.Report
	errs []error
}

func newPassState(n int) *passState {
	return &passState{lat: make([]float64, n), reps: make([]*eas.Report, n), errs: make([]error, n)}
}

// runPass sends every request of the trace once through a closed loop
// of nCallers callers; caller c sends requests c, c+nCallers, ... and
// starts each in a fresh goroutine only after the previous reply. When
// reps is non-nil, caller c replays each request's layer calls on
// reps[c] after its reply. idBase numbers the requests for tracing.
func runPass(call callFn, tr *traffic, nCallers int, st *passState, rps []*replayer, idBase int64) {
	var wg sync.WaitGroup
	for c := 0; c < nCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rp *replayer
			var rec *recorder
			if rps != nil {
				rp, rec = rps[c], rps[c].rec
			}
			for i := c; i < len(tr.reqs); i += nCallers {
				rq := &tr.reqs[i]
				ch := make(chan reply, 1)
				start := time.Now()
				go serveRequest(call, rq, ch, rec, idBase+int64(i))
				r := <-ch
				st.lat[i] = float64(time.Since(start))
				st.reps[i], st.errs[i] = r.rep, r.err
				if rp != nil && r.err == nil {
					if err := rp.replay(idBase+int64(i), r.invoke, rq.k, rq.n, r.rep, rq.areq); err != nil {
						st.errs[i] = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// checkPass checks every request of a pass and returns how many it
// checked, how many failed, and the first failure.
func checkPass(tr *traffic, st *passState) (checked, failed int, first error) {
	for i := range tr.reqs {
		err := st.errs[i]
		if err == nil {
			err = checkReport(st.reps[i], tr.reqs[i].n)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("request %d (%s, n=%d): %w", i, tr.reqs[i].k.Name, tr.reqs[i].n, err)
			}
		}
	}
	return len(tr.reqs), failed, first
}

// serveConfig returns the runtime configuration of a serve workload.
func serveConfig(decide bool, model *eas.PowerModel, observer bool) eas.Config {
	cfg := eas.Config{Model: model}
	if decide {
		cfg.ReprofileEvery = 1
		cfg.Admission = eas.AdmissionPolicy{Watchdog: 2 * time.Second}
		cfg.Robustness = eas.Robustness{Meter: true, ValidateProfiles: true}
		if observer {
			cfg.Observer = eas.NewObserver(eas.ObserverOptions{})
		}
	}
	return cfg
}

// characterize runs the uncached characterization of a platform preset
// inside a powerchar.characterize span.
func characterize(rec *recorder, name string) (*powerchar.Model, error) {
	spec, ok := platform.Presets(name)
	if !ok {
		return nil, fmt.Errorf("unknown platform %q", name)
	}
	h := rec.begin(spanCharacterize, -1, -1)
	m, err := powerchar.Characterize(spec, powerchar.Options{})
	rec.end(h)
	if err != nil {
		return nil, fmt.Errorf("characterize %s: %w", name, err)
	}
	return m, nil
}

// serveSetup is one repetition of the cold set-up a serve user pays
// once: characterize the platform, build the runtime, profile every
// kernel once, close.
func serveSetup(tr *traffic, decide bool, rec *recorder) error {
	if _, err := characterize(rec, "desktop"); err != nil {
		return err
	}
	p := eas.DesktopPlatform()
	// The public model comes from the process-wide cache; the uncached
	// characterization above is the one set-up pays.
	model, err := eas.Characterize(p)
	if err != nil {
		return err
	}
	rt, err := eas.NewRuntime(p, serveConfig(decide, model, true))
	if err != nil {
		return err
	}
	for _, i := range tr.firstTouch {
		rq := &tr.reqs[i]
		rep, err := rt.ParallelForCtx(rq.ctx, rq.k, rq.n)
		if err == nil {
			err = checkReport(rep, rq.n)
		}
		if err != nil {
			rt.Close()
			return fmt.Errorf("first touch of %s: %w", rq.k.Name, err)
		}
	}
	return rt.Close()
}

// runServe runs serve-replay (decide=false) or serve-decide.
func runServe(p params, decide bool) (*outcome, error) {
	tr, err := buildTraffic(p.seed, p.tiny)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.owns(groupEAS, groupTable, groupDecide, groupEngine, groupLoadgen)
	if decide {
		out.owns(groupTiered, groupRobust, groupObs)
	} else {
		out.owns(groupAdmission)
	}
	setupRec := p.newRecorder(-1)
	setup, err := medianSetup(p.setupReps(), func() error { return serveSetup(tr, decide, setupRec) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.e2e["setup_s"] = setup

	model, err := characterize(nil, "desktop")
	if err != nil {
		return nil, err
	}
	plat := eas.DesktopPlatform()
	pubModel, err := eas.Characterize(plat)
	if err != nil {
		return nil, err
	}
	cfg := serveConfig(decide, pubModel, true)
	rt, err := eas.NewRuntime(plat, cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	call := callFn(rt.ParallelForCtx)
	export := func() error {
		if cfg.Observer == nil {
			return nil
		}
		if err := cfg.Observer.WriteMetrics(io.Discard); err != nil {
			return err
		}
		return cfg.Observer.WriteChromeTrace(io.Discard)
	}

	// Replayers exist only in the traced run; caller 0's also traces
	// the warm-up pass, where every kernel is profiled for the first
	// time.
	var rps []*replayer
	if p.trace {
		for c := 0; c < callers; c++ {
			rp, err := newReplayer(p.newRecorder(c), model, replayOptions{tiered: decide, watchdog: cfg.Admission.Watchdog, robust: decide})
			if err != nil {
				return nil, err
			}
			rps = append(rps, rp)
		}
	}
	st := newPassState(len(tr.reqs))
	ops := len(tr.reqs)

	// Warm-up, then one more serial pass whose reports give the
	// deterministic figures: a single caller in trace order sees the
	// same platform state on every run, so its simulated EDP and
	// decision counts repeat exactly.
	var warmRps []*replayer
	if rps != nil {
		warmRps = rps[:1]
	}
	runPass(call, tr, 1, st, warmRps, -int64(ops))
	out.tally(checkPass(tr, st))
	runPass(call, tr, 1, st, nil, 0)
	out.tally(checkPass(tr, st))
	var edp float64
	profiled, steps := 0, 0
	for _, rep := range st.reps {
		edp += rep.MetricValue
		if rep.Profiled {
			profiled++
			steps += rep.ProfileSteps
		}
	}
	out.e2e["sim_edp_per_op"] = edp / float64(ops)
	out.layers["table.profiled_pct"] = 100 * float64(profiled) / float64(ops)
	out.layers["table.small_n_pct"] = 100 * float64(tr.smallN) / float64(ops)
	out.layers["profile.steps_per_op"] = float64(steps) / float64(ops)
	out.layers["alpha.searches_per_op"] = float64(profiled) / float64(ops)
	out.layers["engine.runs_per_op"] = float64(ops+steps) / float64(ops)

	// Timed passes: whole passes until the run's time is spent. Each
	// figure is a median over passes, so a pass that another process
	// slowed down does not move it. Pass times are net of host steal;
	// request latencies are plain wall time.
	var p50s, p90s, p99s, passSecs []float64
	startPeakRSS()
	h0 := readHeap()
	steal0 := stealTicks()
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < p.duration() {
		// Every pass starts from a collected heap, as an apps pass does,
		// so the peak resident set does not depend on where the GC
		// cycle happened to fall. The collection is not timed.
		runtime.GC()
		t := startTimer()
		runPass(call, tr, callers, st, nil, 0)
		if err := export(); err != nil {
			return out, fmt.Errorf("observer export: %w", err)
		}
		d := t.elapsed()
		passSecs = append(passSecs, d.Seconds())
		out.tally(checkPass(tr, st))
		p50s = append(p50s, quantile(st.lat, 0.5))
		p90s = append(p90s, quantile(st.lat, 0.9))
		p99s = append(p99s, quantile(st.lat, 0.99))
		passes++
	}
	elapsed := time.Since(start)
	heap := readHeap().sub(h0)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	total := float64(passes * ops)
	out.e2e["throughput_ops"] = float64(ops) / median(passSecs)
	out.e2e["latency_p50_us"] = median(p50s) / 1e3
	out.e2e["latency_p90_us"] = median(p90s) / 1e3
	// The p99 is printed but not a gated metric: host steal arrives in
	// slices of milliseconds that land in the top percent of requests.
	out.notef("request latency p99 %.1f us (not gated; moves with host steal)", median(p99s)/1e3)
	out.e2e["allocs_per_op"] = float64(heap.allocs) / total
	out.layers["go.bytes_per_op"] = float64(heap.bytes) / total
	out.layers["go.gc_cycles_per_kop"] = 1000 * float64(heap.gcs) / total
	out.notef("serve: %d passes of %d requests, %d callers, %.2fs, host steal %.1f%%",
		passes, ops, callers, elapsed.Seconds(), stealPct(steal0, elapsed))

	if !p.trace {
		return out, out.addQuality(p)
	}

	// Traced passes: the same closed loop, each reply followed by the
	// replay of that request's layer calls.
	tstart := time.Now()
	for pass := 0; pass < p.tracedPasses(); pass++ {
		runPass(call, tr, callers, st, rps, int64(pass*ops))
		if cfg.Observer != nil {
			h := rps[0].rec.begin(spanObsExport, -1, -1)
			err := export()
			rps[0].rec.end(h)
			if err != nil {
				return out, fmt.Errorf("observer export: %w", err)
			}
		}
		out.tally(checkPass(tr, st))
	}
	traced := float64(p.tracedPasses()*ops) / time.Since(tstart).Seconds()
	out.layers["trace.overhead_pct"] = 100 * (out.e2e["throughput_ops"]/traced - 1)

	totals := newLayerTotals()
	totals.add(setupRec.spansOrNil())
	for _, rp := range rps {
		totals.add(rp.rec.spans)
		out.mismatches += rp.mismatches
	}
	out.recs = append(out.recs, setupRec)
	for _, rp := range rps {
		out.recs = append(out.recs, rp.rec)
	}
	out.fromTotals(totals)

	ns, allocs := dryRun(tr)
	out.layers["loadgen.ns_per_req"] = ns
	out.layers["loadgen.allocs_per_req"] = allocs
	if decide {
		cost, err := observerCost(pubModel, tr)
		if err != nil {
			return out, err
		}
		out.layers["obs.cost_ns_per_op"] = cost
	}
	return out, nil
}

var dryReport = &eas.Report{Alpha: 0.5}

// dryRun drives one pass of the same closed loop against a no-op
// callee and returns the generator's own mean request latency (ns) and
// allocations per request.
func dryRun(tr *traffic) (ns, allocs float64) {
	noop := func(context.Context, eas.Kernel, int) (*eas.Report, error) { return dryReport, nil }
	st := newPassState(len(tr.reqs))
	runPass(noop, tr, callers, st, nil, 0) // warm the goroutine and channel caches
	runtime.GC()
	h0 := readHeap()
	runPass(noop, tr, callers, st, nil, 0)
	h := readHeap().sub(h0)
	return mean(st.lat), float64(h.allocs) / float64(len(tr.reqs))
}

// observerCost returns serve-decide's invoke time with an Observer
// attached minus without, per request: two serial passes of each on
// otherwise identical warmed runtimes, interleaved.
func observerCost(model *eas.PowerModel, tr *traffic) (float64, error) {
	var sums [2]float64
	var rts [2]*eas.Runtime
	for i := range rts {
		p := eas.DesktopPlatform()
		rt, err := eas.NewRuntime(p, serveConfig(true, model, i == 0))
		if err != nil {
			return 0, err
		}
		defer rt.Close()
		rts[i] = rt
	}
	for round := 0; round < 3; round++ {
		for i, rt := range rts {
			for j := range tr.reqs {
				rq := &tr.reqs[j]
				start := time.Now()
				rep, err := rt.ParallelForCtx(rq.ctx, rq.k, rq.n)
				d := time.Since(start)
				if err == nil {
					err = checkReport(rep, rq.n)
				}
				if err != nil {
					return 0, fmt.Errorf("observer cost pass: %w", err)
				}
				if round > 0 { // round 0 warms both tables
					sums[i] += float64(d)
				}
			}
		}
	}
	return (sums[0] - sums[1]) / float64(2*len(tr.reqs)), nil
}
