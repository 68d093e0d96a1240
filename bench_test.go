package eas_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment end-to-end and
// reports the reproduced headline statistic through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the paper-versus-measured numbers
// (see EXPERIMENTS.md for the comparison table).

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/microbench"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/profile"
	"github.com/hetsched/eas/internal/report"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/wclass"
	"github.com/hetsched/eas/internal/workloads"
)

// benchEvaluate runs a full figure grid once per iteration and reports
// the strategy averages.
func benchEvaluate(b *testing.B, platformName, metricName string) {
	b.Helper()
	spec, _ := platform.Presets(platformName)
	model, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var fig *report.EfficiencyFigure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err = report.Evaluate(platformName, metricName, report.Options{Model: model})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range fig.Strategies {
		b.ReportMetric(fig.Average(s), s+"_eff_%")
	}
}

// BenchmarkFig09_DesktopEDP regenerates Figure 9 (paper: GPU 79.6%,
// PERF 83.9%, EAS 96.2% of Oracle).
func BenchmarkFig09_DesktopEDP(b *testing.B) { benchEvaluate(b, "desktop", "edp") }

// BenchmarkFig10_DesktopEnergy regenerates Figure 10 (paper: GPU 95.8%,
// PERF 70.4%, EAS 97.2%).
func BenchmarkFig10_DesktopEnergy(b *testing.B) { benchEvaluate(b, "desktop", "energy") }

// BenchmarkFig11_TabletEDP regenerates Figure 11 (paper: EAS 93.2%).
func BenchmarkFig11_TabletEDP(b *testing.B) { benchEvaluate(b, "tablet", "edp") }

// BenchmarkFig12_TabletEnergy regenerates Figure 12 (paper: EAS 96.4%).
func BenchmarkFig12_TabletEnergy(b *testing.B) { benchEvaluate(b, "tablet", "energy") }

// BenchmarkTable1_Classification regenerates Table 1's workload
// classification via online profiling and reports the match count.
func BenchmarkTable1_Classification(b *testing.B) {
	var rows []report.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Table1(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	matches := 0
	for _, r := range rows {
		if r.Matches() {
			matches++
		}
	}
	b.ReportMetric(float64(matches), "matches_of_12")
}

// BenchmarkFig01_CCSweep regenerates Figure 1: the Connected Components
// energy/performance sweep (paper: minimum energy at 90% GPU, best
// performance at 60% GPU).
func BenchmarkFig01_CCSweep(b *testing.B) {
	var pts []report.Fig1Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = report.Fig1Sweep(0.1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	bestE, bestT := report.BestFig1(pts)
	b.ReportMetric(bestE*100, "minE_gpu_%")
	b.ReportMetric(bestT*100, "bestT_gpu_%")
}

// BenchmarkFig02_PlatformTraces regenerates the Figure 2 power traces
// (memory-bound 90-10 split on tablet and desktop).
func BenchmarkFig02_PlatformTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.Fig2Traces(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig03_MicrobenchTraces regenerates the Figure 3 traces
// (compute vs memory long-running micro-benchmarks, paper: ~55 W vs
// ~63 W combined).
func BenchmarkFig03_MicrobenchTraces(b *testing.B) {
	var cPeak, mPeak float64
	for i := 0; i < b.N; i++ {
		compute, memory, err := report.Fig3Traces()
		if err != nil {
			b.Fatal(err)
		}
		cPeak = compute.PackagePower.Max()
		mPeak = memory.PackagePower.Max()
	}
	b.ReportMetric(cPeak, "compute_W")
	b.ReportMetric(mPeak, "memory_W")
}

// BenchmarkFig04_ShortBursts regenerates the Figure 4 trace (ten short
// GPU bursts dipping package power; paper: ~60 W → <40 W).
func BenchmarkFig04_ShortBursts(b *testing.B) {
	var hi, lo float64
	for i := 0; i < b.N; i++ {
		tr, err := report.Fig4Trace()
		if err != nil {
			b.Fatal(err)
		}
		hi = tr.PackagePower.Max()
		// Dip floor: minimum over the active region (excludes idle).
		lo = hi
		for _, s := range tr.PackagePower.Samples {
			if s.V > 20 && s.V < lo {
				lo = s.V
			}
		}
	}
	b.ReportMetric(hi, "plateau_W")
	b.ReportMetric(lo, "dip_W")
}

// BenchmarkFig05_DesktopCharacterization times the full desktop
// characterization (Figure 5: eight sixth-order fits).
func BenchmarkFig05_DesktopCharacterization(b *testing.B) {
	spec := platform.DesktopSpec()
	var model *powerchar.Model
	var err error
	for i := 0; i < b.N; i++ {
		model, err = powerchar.Characterize(spec, powerchar.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	c, _ := model.Curve(wclass.Category{})
	b.ReportMetric(c.Power(0), "comp_P0_W")
	b.ReportMetric(c.Power(1), "comp_P1_W")
}

// BenchmarkFig06_TabletCharacterization times the tablet
// characterization (Figure 6).
func BenchmarkFig06_TabletCharacterization(b *testing.B) {
	spec := platform.TabletSpec()
	var model *powerchar.Model
	var err error
	for i := 0; i < b.N; i++ {
		model, err = powerchar.Characterize(spec, powerchar.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	c, _ := model.Curve(wclass.Category{})
	b.ReportMetric(c.Power(0), "comp_P0_W")
	b.ReportMetric(c.Power(1), "comp_P1_W")
}

// BenchmarkAlphaSearch measures the scheduler's per-decision cost: the
// grid evaluation of the objective over α (paper §5: "on average 1-2
// microseconds on both platforms").
func BenchmarkAlphaSearch(b *testing.B) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	curve, _ := model.Curve(wclass.Category{Memory: true})
	tm := core.TimeModel{RC: 7.5e6, RG: 1.4e7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BestAlpha(curve, tm, 1e6, metrics.EDP, 0.1)
	}
}

// BenchmarkBestAlphaRefined measures the refined per-decision search
// (coarse 0.1 grid + golden-section polish of the winning cell) that
// Options.RefineAlpha enables. It must stay allocation-free: the
// objective closure and the search state live on the stack.
func BenchmarkBestAlphaRefined(b *testing.B) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	curve, _ := model.Curve(wclass.Category{Memory: true})
	tm := core.TimeModel{RC: 7.5e6, RG: 1.4e7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BestAlphaRefined(curve, tm, 1e6, metrics.EDP, 0.1, 0)
	}
}

// BenchmarkOnlineProfilingStep measures one online profiling step on
// the simulated desktop (GPU chunk + concurrent CPU draining).
func BenchmarkOnlineProfilingStep(b *testing.B) {
	suite, err := microbench.Suite(platform.DesktopSpec())
	if err != nil {
		b.Fatal(err)
	}
	k := suite[0].Kernel
	p := platform.Desktop()
	eng := engine.New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Step(eng, k, 2240, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimulation measures raw simulation throughput: one
// second of simulated combined execution.
func BenchmarkEngineSimulation(b *testing.B) {
	suite, err := microbench.Suite(platform.DesktopSpec())
	if err != nil {
		b.Fatal(err)
	}
	k := suite[4].Kernel // mem-LL
	for i := 0; i < b.N; i++ {
		p := platform.Desktop()
		eng := engine.New(p)
		if _, err := eng.Run(engine.Phase{Kernel: k, GPUItems: 5e6, PoolItems: 5e6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlphaStep runs the α-granularity ablation.
func BenchmarkAblationAlphaStep(b *testing.B) {
	var rows []report.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.AblationAlphaStep([]float64{0.1, 0.05}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.EASAvgEff, r.Param+"_eff_%")
	}
}

// BenchmarkAblationSingleCurve runs the categories-vs-single-curve
// ablation.
func BenchmarkAblationSingleCurve(b *testing.B) {
	var rows []report.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.AblationSingleCurve(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].EASAvgEff, "eight_curves_eff_%")
	b.ReportMetric(rows[1].EASAvgEff, "single_curve_eff_%")
}

// BenchmarkRuntimeMultiTenant measures end-to-end invocation throughput
// of one shared Runtime under 1, 4 and 16 concurrent tenants — the
// admission gate's scaling curve. The scheduling step is serialized by
// design (one simulated platform), so the interesting number is how
// much aggregate throughput survives queueing as tenancy grows.
func BenchmarkRuntimeMultiTenant(b *testing.B) {
	model, err := eas.Characterize(eas.DesktopPlatform())
	if err != nil {
		b.Fatal(err)
	}
	const n = 50000
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			rt, err := eas.NewRuntime(eas.DesktopPlatform(), eas.Config{Metric: eas.EDP, Model: model})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			// Build the kernels once, outside the timed loop: formatting a
			// name per call would add its allocations and stack depth to
			// every invocation.
			kernels := make([]eas.Kernel, tenants)
			for g := range kernels {
				kernels[g] = eas.Kernel{
					Name:         fmt.Sprintf("tenant-%d", g),
					FLOPsPerItem: 200, MemOpsPerItem: 20, L3MissRatio: 0.1, InstructionsPerItem: 400,
				}
			}
			// Warm the α table so the steady state is measured, not
			// first-touch profiling.
			for _, k := range kernels {
				if _, err := rt.ParallelFor(k, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := range kernels {
					wg.Add(1)
					go func(k *eas.Kernel) {
						defer wg.Done()
						if _, err := rt.ParallelFor(*k, n); err != nil {
							b.Error(err)
						}
					}(&kernels[g])
				}
				wg.Wait()
			}
			b.StopTimer()
			invocations := float64(tenants) * float64(b.N)
			b.ReportMetric(invocations/b.Elapsed().Seconds(), "invocations/s")
		})
	}
}

// BenchmarkAdmissionContended measures contended admission throughput —
// decisions/sec through one gate with every CPU hammering it — for the
// legacy FIFO gate and the tiered controller (quotas unlimited, queues
// unbounded, watchdog armed), the number BENCH_admission.json baselines.
// The α table is pre-warmed so the gate itself is the hot path, not
// first-touch profiling.
func BenchmarkAdmissionContended(b *testing.B) {
	model, err := eas.Characterize(eas.DesktopPlatform())
	if err != nil {
		b.Fatal(err)
	}
	const n = 50000
	for _, cfg := range []struct {
		name   string
		policy eas.AdmissionPolicy
	}{
		{"legacy", eas.AdmissionPolicy{}},
		{"tiered", eas.AdmissionPolicy{Enabled: true, Watchdog: 10 * time.Second}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt, err := eas.NewRuntime(eas.DesktopPlatform(), eas.Config{
				Metric: eas.EDP, Model: model, Admission: cfg.policy,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			kernel := eas.Kernel{
				Name:         "admission-bench",
				FLOPsPerItem: 200, MemOpsPerItem: 20, L3MissRatio: 0.1, InstructionsPerItem: 400,
			}
			if _, err := rt.ParallelFor(kernel, n); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := 0
				for pb.Next() {
					ctx := eas.WithClass(eas.WithTenant(context.Background(),
						fmt.Sprintf("tenant-%d", g%4)), eas.Class(g%3))
					if _, err := rt.ParallelForCtx(ctx, kernel, n); err != nil {
						b.Error(err)
						return
					}
					g++
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}

// BenchmarkDecisionPath measures the batched decision path at the core
// layer: same-kernel tenants hammering one scheduler whose records are
// forced to re-profile every invocation (ReprofileEvery=1) on a fine α
// grid, so the decision itself — profile + α search — dominates the
// invocation. "solo" pays one full decision per invocation;
// "coalesced" deduplicates concurrent decisions into one leader
// flight; "fastpath" skips the periodic re-profile entirely while the
// record is fresh and confident. The numbers baseline
// BENCH_decision.json.
func BenchmarkDecisionPath(b *testing.B) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kernel := engine.Kernel{
		Name: "decision-bench",
		Cost: device.CostProfile{FLOPs: 20000, MemOps: 20, L3MissRatio: 0.02, Instructions: 3000},
	}
	const (
		n     = 5000   // just past the profile threshold: decision-heavy
		aStep = 0.0005 // fine grid, the regime where decision cost hurts
	)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"solo", core.Options{ReprofileEvery: 1, AlphaStep: aStep}},
		{"coalesced", core.Options{ReprofileEvery: 1, AlphaStep: aStep, CoalesceDecisions: true}},
		{"fastpath", core.Options{ReprofileEvery: 1, AlphaStep: aStep, TableTTL: time.Hour, MinConfidence: 1}},
	} {
		for _, tenants := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/tenants=%d", mode.name, tenants), func(b *testing.B) {
				s, err := core.New(engine.New(platform.Desktop()), model, metrics.EDP, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				// Warm the table so fastpath measures replay, not first touch.
				if _, err := s.ParallelFor(kernel, n); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for g := 0; g < tenants; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if _, err := s.ParallelFor(kernel, n); err != nil {
								b.Error(err)
							}
						}()
					}
					wg.Wait()
				}
				b.StopTimer()
				decisions := float64(tenants) * float64(b.N)
				b.ReportMetric(decisions/b.Elapsed().Seconds(), "decisions/s")
			})
		}
	}
}

// BenchmarkHotPath measures the steady-state invocation hot path with
// the memory-reuse arena on (Options.Reuse): the same decision-heavy
// regime as BenchmarkDecisionPath — ReprofileEvery=1, fine α grid —
// but with interned table entries, the hoisted α search, and pooled
// per-invocation state carrying the load. Each mode runs observer-off
// ("solo") and with a ring-sink observer attached ("solo-obs"), whose
// decision-audit records recycle through the arena. The numbers
// baseline BENCH_hotpath.json; ci/check-bench-regression.sh fails the
// build on a >20% decisions/sec regression against it.
func BenchmarkHotPath(b *testing.B) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kernel := engine.Kernel{
		Name: "hotpath-bench",
		Cost: device.CostProfile{FLOPs: 20000, MemOps: 20, L3MissRatio: 0.02, Instructions: 3000},
	}
	const (
		n     = 5000
		aStep = 0.0005
	)
	base := []struct {
		name string
		opts core.Options
	}{
		{"solo", core.Options{ReprofileEvery: 1, AlphaStep: aStep, Reuse: true}},
		{"coalesced", core.Options{ReprofileEvery: 1, AlphaStep: aStep, Reuse: true, CoalesceDecisions: true}},
		{"fastpath", core.Options{ReprofileEvery: 1, AlphaStep: aStep, Reuse: true, TableTTL: time.Hour, MinConfidence: 1}},
	}
	for _, withObs := range []bool{false, true} {
		for _, mode := range base {
			name := mode.name
			if withObs {
				name += "-obs"
			}
			for _, tenants := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/tenants=%d", name, tenants), func(b *testing.B) {
					opts := mode.opts
					if withObs {
						opts.Observer = obs.New(obs.NewRingSink(obs.DefaultRingCapacity), obs.NewRegistry())
					}
					s, err := core.New(engine.New(platform.Desktop()), model, metrics.EDP, opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.ParallelFor(kernel, n); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var wg sync.WaitGroup
						for g := 0; g < tenants; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								if _, err := s.ParallelFor(kernel, n); err != nil {
									b.Error(err)
								}
							}()
						}
						wg.Wait()
					}
					b.StopTimer()
					decisions := float64(tenants) * float64(b.N)
					b.ReportMetric(decisions/b.Elapsed().Seconds(), "decisions/s")
				})
			}
		}
	}
}

// BenchmarkWorkloadsEAS runs every Table 1 workload end-to-end under
// EAS on the desktop (one sub-benchmark each), reporting the simulated
// time and energy of the run.
func BenchmarkWorkloadsEAS(b *testing.B) {
	spec := platform.DesktopSpec()
	model, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads.ForPlatform("desktop") {
		w := w
		b.Run(w.Abbrev, func(b *testing.B) {
			var res sched.Result
			for i := 0; i < b.N; i++ {
				res, err = sched.EAS(core.Options{GrowProfileChunk: true, ConvergeTol: 0.08}).
					Run(context.Background(), w, spec, model, metrics.EDP, report.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Duration.Seconds(), "sim_s")
			b.ReportMetric(res.EnergyJ, "sim_J")
		})
	}
}
