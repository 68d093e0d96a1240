package report

import (
	"strings"
	"sync"
	"testing"
)

// The evaluation grids take a second or two; compute each figure once.
var (
	figOnce sync.Once
	figs    map[string]*EfficiencyFigure
	figErr  error
)

func allFigures(t *testing.T) map[string]*EfficiencyFigure {
	t.Helper()
	figOnce.Do(func() {
		figs = map[string]*EfficiencyFigure{}
		for _, exp := range []struct{ p, m string }{
			{"desktop", "edp"}, {"desktop", "energy"},
			{"tablet", "edp"}, {"tablet", "energy"},
		} {
			fig, err := Evaluate(exp.p, exp.m, Options{})
			if err != nil {
				figErr = err
				return
			}
			figs[fig.ID] = fig
		}
	})
	if figErr != nil {
		t.Fatal(figErr)
	}
	return figs
}

var (
	seedFigsMu sync.Mutex
	seedFigs   = map[int64]map[string]*EfficiencyFigure{}
)

// figuresAt returns Figs. 9-12 at one seed, keyed by figure ID,
// evaluating each seed once per test binary.
func figuresAt(t *testing.T, seed int64) map[string]*EfficiencyFigure {
	t.Helper()
	if seed == DefaultSeed {
		return allFigures(t)
	}
	seedFigsMu.Lock()
	defer seedFigsMu.Unlock()
	if fs, ok := seedFigs[seed]; ok {
		return fs
	}
	fs := map[string]*EfficiencyFigure{}
	for _, exp := range []struct{ p, m string }{
		{"desktop", "edp"}, {"desktop", "energy"},
		{"tablet", "edp"}, {"tablet", "energy"},
	} {
		fig, err := Evaluate(exp.p, exp.m, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fs[fig.ID] = fig
	}
	seedFigs[seed] = fs
	return fs
}

// TestSingleDeviceNeverBeatsOracle checks the Oracle's grid really
// contains both endpoints: CPU-alone is its α = 0 point and GPU-alone
// its α = 1 point, so neither can score better than the Oracle on any
// cell of Figs. 9-12. An accumulated grid that stops at
// 0.9999999999999999 let GPU-alone read 100.015% of the Oracle on
// Fig. 10 BFS at seed 3.
func TestSingleDeviceNeverBeatsOracle(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, f := range figuresAt(t, seed) {
			for _, w := range f.Workloads {
				for _, s := range []string{"CPU", "GPU"} {
					if c, o := f.Cells[w][s].Value, f.Oracle[w].Value; c < o {
						t.Errorf("seed %d %s %s: %s-alone %v beats the Oracle %v", seed, f.ID, w, s, c, o)
					}
				}
			}
		}
	}
}

func TestFigureStructure(t *testing.T) {
	fs := allFigures(t)
	f9 := fs["Figure 9"]
	if f9 == nil {
		t.Fatal("Figure 9 missing")
	}
	if len(f9.Workloads) != 12 {
		t.Errorf("desktop figure has %d workloads, want 12", len(f9.Workloads))
	}
	f11 := fs["Figure 11"]
	if len(f11.Workloads) != 7 {
		t.Errorf("tablet figure has %d workloads, want 7", len(f11.Workloads))
	}
	for _, f := range fs {
		for _, wl := range f.Workloads {
			for _, s := range f.Strategies {
				c, ok := f.Cells[wl][s]
				if !ok {
					t.Fatalf("%s: missing cell %s/%s", f.ID, wl, s)
				}
				if c.EfficiencyPct <= 0 || c.EfficiencyPct > 200 {
					t.Errorf("%s %s/%s: efficiency %v implausible", f.ID, wl, s, c.EfficiencyPct)
				}
			}
			if f.Oracle[wl].Value <= 0 {
				t.Errorf("%s: oracle value for %s not positive", f.ID, wl)
			}
		}
	}
}

// TestPaperShapeDesktopEDP pins the Figure 9 qualitative result: EAS is
// the best strategy, hybrid beats single devices, GPU-alone lands
// roughly where the paper puts it (~80% of Oracle), CPU-alone is far
// behind.
func TestPaperShapeDesktopEDP(t *testing.T) {
	f := allFigures(t)["Figure 9"]
	eas, perf, gpu, cpu := f.Average("EAS"), f.Average("PERF"), f.Average("GPU"), f.Average("CPU")
	if eas < perf-0.5 {
		t.Errorf("EAS %v should be ≥ PERF %v", eas, perf)
	}
	if perf <= gpu || gpu <= cpu {
		t.Errorf("ordering broken: PERF %v > GPU %v > CPU %v expected", perf, gpu, cpu)
	}
	if eas < 90 {
		t.Errorf("EAS average %v, want ≥90 (paper: 96.2)", eas)
	}
	if gpu < 70 || gpu > 95 {
		t.Errorf("GPU average %v, want ≈80 (paper: 79.6)", gpu)
	}
}

// TestPaperShapeDesktopEnergy pins Figure 10: GPU-alone is near-Oracle,
// PERF pays for its CPU power, EAS matches or beats GPU-alone.
func TestPaperShapeDesktopEnergy(t *testing.T) {
	f := allFigures(t)["Figure 10"]
	eas, perf, gpu, cpu := f.Average("EAS"), f.Average("PERF"), f.Average("GPU"), f.Average("CPU")
	if gpu < 90 {
		t.Errorf("GPU average %v, want ≥90 (paper: 95.8)", gpu)
	}
	if eas < gpu-1 {
		t.Errorf("EAS %v should be at least GPU-alone %v (paper: 97.2 vs 95.8)", eas, gpu)
	}
	if perf >= eas {
		t.Errorf("PERF %v should trail EAS %v on energy (paper: 70.4 vs 97.2)", perf, eas)
	}
	if cpu >= perf {
		t.Errorf("CPU %v should be worst (PERF %v)", cpu, perf)
	}
	// FD is the CPU-biased outlier: EAS must essentially match the
	// Oracle's CPU-heavy split while GPU-alone suffers.
	fd := f.Cells["FD"]
	if fd["EAS"].EfficiencyPct < 90 {
		t.Errorf("FD EAS %v, want ≥90 (paper: EAS finds 100%% CPU)", fd["EAS"].EfficiencyPct)
	}
	if fd["GPU"].EfficiencyPct > 85 {
		t.Errorf("FD GPU %v should suffer (paper: GPU-alone suffers significantly)", fd["GPU"].EfficiencyPct)
	}
}

// TestPaperShapeTablet pins Figures 11-12: EAS best on both metrics;
// CPU-alone dramatically worst on EDP; GPU-alone clearly behind EAS.
func TestPaperShapeTablet(t *testing.T) {
	f11 := allFigures(t)["Figure 11"]
	eas, perf, gpu, cpu := f11.Average("EAS"), f11.Average("PERF"), f11.Average("GPU"), f11.Average("CPU")
	if eas < 88 {
		t.Errorf("tablet EDP EAS %v, want ≥88 (paper: 93.2)", eas)
	}
	if eas < perf-0.5 || perf <= gpu || gpu <= cpu {
		t.Errorf("tablet EDP ordering broken: EAS %v ≥ PERF %v > GPU %v > CPU %v", eas, perf, gpu, cpu)
	}
	f12 := allFigures(t)["Figure 12"]
	eas12, gpu12, cpu12 := f12.Average("EAS"), f12.Average("GPU"), f12.Average("CPU")
	if eas12 < 90 {
		t.Errorf("tablet energy EAS %v, want ≥90 (paper: 96.4)", eas12)
	}
	if eas12 <= gpu12-1 || gpu12 <= cpu12 {
		t.Errorf("tablet energy ordering broken: EAS %v > GPU %v > CPU %v", eas12, gpu12, cpu12)
	}
}

func TestRenderContainsAverages(t *testing.T) {
	f := allFigures(t)["Figure 9"]
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 9", "EDP", "avg", "EAS", "Oracle"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate("mainframe", "edp", Options{}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := Evaluate("desktop", "speed", Options{}); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestFig1Sweep(t *testing.T) {
	pts, err := Fig1Sweep(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("sweep has %d points, want 11", len(pts))
	}
	bestE, bestT := BestFig1(pts)
	// Paper Fig. 1: minimum energy at high GPU offload (0.9), best
	// performance at an interior split (0.6). Our shape: energy
	// minimized at α ≥ 0.7, runtime at an interior α.
	if bestE < 0.7 {
		t.Errorf("energy-optimal α = %v, want ≥0.7 (paper: 0.9)", bestE)
	}
	if bestT <= 0.2 || bestT >= 1 {
		t.Errorf("time-optimal α = %v, want interior (paper: 0.6)", bestT)
	}
	var b strings.Builder
	RenderFig1(&b, pts)
	if !strings.Contains(b.String(), "min energy") {
		t.Error("Fig1 render incomplete")
	}
}
