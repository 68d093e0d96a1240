package sched

import (
	"context"
	"sync"
	"testing"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/workloads"
)

var (
	modelOnce sync.Once
	deskModel *powerchar.Model
	modelErr  error
)

func desktopModel(t *testing.T) *powerchar.Model {
	t.Helper()
	modelOnce.Do(func() {
		deskModel, modelErr = powerchar.Characterize(platform.DesktopSpec(), powerchar.Options{})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return deskModel
}

func easOpts() core.Options {
	return core.Options{GrowProfileChunk: true, ConvergeTol: 0.08}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"CPU":    CPUOnly(),
		"GPU":    GPUOnly(),
		"Oracle": Oracle(0.1),
		"PERF":   Perf(easOpts()),
		"EAS":    EAS(easOpts()),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
	if FixedAlpha(0.25).Name() != "alpha=0.25" {
		t.Errorf("FixedAlpha name = %q", FixedAlpha(0.25).Name())
	}
}

func TestFixedEndpointsMatchDedicatedStrategies(t *testing.T) {
	w, _ := workloads.ByAbbrev("SM")
	spec := platform.DesktopSpec()
	cpu1, err := CPUOnly().Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpu2, err := FixedAlpha(0).Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cpu1.Value != cpu2.Value || cpu1.Duration != cpu2.Duration {
		t.Errorf("CPUOnly != FixedAlpha(0): %+v vs %+v", cpu1, cpu2)
	}
	if cpu1.GPUShare != 0 {
		t.Errorf("CPU-only GPU share = %v", cpu1.GPUShare)
	}
	gpu, err := GPUOnly().Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.GPUShare != 1 {
		t.Errorf("GPU-only GPU share = %v", gpu.GPUShare)
	}
}

func TestOracleIsLowerBoundOnGrid(t *testing.T) {
	// The Oracle must never be worse than CPU-alone or GPU-alone
	// (both are on its search grid).
	w, _ := workloads.ByAbbrev("SM")
	spec := platform.DesktopSpec()
	oracle, err := Oracle(0.1).Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{CPUOnly(), GPUOnly()} {
		res, err := s.Run(context.Background(), w, spec, nil, metrics.EDP, 1)
		if err != nil {
			t.Fatal(err)
		}
		if oracle.Value > res.Value*1.0001 {
			t.Errorf("oracle %v worse than %s %v", oracle.Value, s.Name(), res.Value)
		}
	}
	if oracle.OracleAlpha < 0 || oracle.OracleAlpha > 1 {
		t.Errorf("oracle alpha %v outside [0,1]", oracle.OracleAlpha)
	}
}

func TestAdaptiveNeedsModel(t *testing.T) {
	w, _ := workloads.ByAbbrev("SM")
	if _, err := EAS(easOpts()).Run(context.Background(), w, platform.DesktopSpec(), nil, metrics.EDP, 1); err == nil {
		t.Error("EAS without a model should error")
	}
}

func TestUnsupportedWorkloadPropagates(t *testing.T) {
	w, _ := workloads.ByAbbrev("BFS") // not on tablet
	if _, err := CPUOnly().Run(context.Background(), w, platform.TabletSpec(), nil, metrics.EDP, 1); err == nil {
		t.Error("tablet BFS should error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	w, _ := workloads.ByAbbrev("NB")
	spec := platform.DesktopSpec()
	model := desktopModel(t)
	a, err := EAS(easOpts()).Run(context.Background(), w, spec, model, metrics.EDP, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EAS(easOpts()).Run(context.Background(), w, spec, model, metrics.EDP, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("EAS runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestEASBeatsPerfOnEnergyForComputeWorkload(t *testing.T) {
	// The paper's central claim in miniature: on the desktop, for a
	// compute-bound regular workload under the energy metric, PERF
	// splits work (burning CPU power) while EAS recognizes the GPU's
	// power efficiency.
	w, _ := workloads.ByAbbrev("RT")
	spec := platform.DesktopSpec()
	model := desktopModel(t)
	perf, err := Perf(easOpts()).Run(context.Background(), w, spec, model, metrics.Energy, 1)
	if err != nil {
		t.Fatal(err)
	}
	eas, err := EAS(easOpts()).Run(context.Background(), w, spec, model, metrics.Energy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eas.Value >= perf.Value {
		t.Errorf("EAS energy %v should beat PERF %v on RT", eas.Value, perf.Value)
	}
	if eas.GPUShare <= perf.GPUShare {
		t.Errorf("EAS should offload more than PERF for energy: %v vs %v", eas.GPUShare, perf.GPUShare)
	}
}

func TestPerfOptimizesTime(t *testing.T) {
	// PERF should achieve (near-)best execution time among strategies.
	w, _ := workloads.ByAbbrev("MB")
	spec := platform.DesktopSpec()
	model := desktopModel(t)
	perf, err := Perf(easOpts()).Run(context.Background(), w, spec, model, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := GPUOnly().Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := CPUOnly().Run(context.Background(), w, spec, nil, metrics.EDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Duration > gpu.Duration || perf.Duration > cpu.Duration {
		t.Errorf("PERF %v should be faster than single devices (gpu %v, cpu %v)",
			perf.Duration, gpu.Duration, cpu.Duration)
	}
}

func TestAlphaGridExactEndpoints(t *testing.T) {
	g := AlphaGrid(0.1)
	if len(g) != 11 {
		t.Fatalf("AlphaGrid(0.1) has %d points, want 11", len(g))
	}
	for i, a := range g {
		if want := float64(i) / 10; a != want {
			t.Errorf("point %d = %v, want %v", i, a, want)
		}
	}
	if g[len(g)-1] != 1 {
		t.Errorf("last point %v, want exactly 1", g[len(g)-1])
	}
	for _, step := range []float64{0.05, 0.25, 0.5, 1.0 / 3} {
		if g := AlphaGrid(step); g[0] != 0 || g[len(g)-1] != 1 {
			t.Errorf("AlphaGrid(%v) = %v, want 0 … 1", step, g)
		}
	}
	// A step that does not divide 1 visits its multiples below 1.
	if g := AlphaGrid(0.3); len(g) != 4 || g[3] >= 1 {
		t.Errorf("AlphaGrid(0.3) = %v", g)
	}
}
