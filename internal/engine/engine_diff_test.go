package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/trace"
)

// diffStep is one action on a platform: a phase, or idle time when
// Idle > 0.
type diffStep struct {
	Phase Phase
	Idle  time.Duration
	// Traced records the step into a per-twin trace set.
	Traced bool
}

// twin is one platform and engine of a differential pair.
type twin struct {
	p   *platform.Platform
	e   *Engine
	run func(Phase) (Result, error)
}

func newTwin(spec platform.Spec, slowFactor float64, ref bool) *twin {
	p := platform.MustNew(spec)
	e := New(p)
	if slowFactor > 1 {
		plan := faultinject.New(1)
		plan.SlowGPU(slowFactor, 1)
		e.SetFaultPlan(plan)
	}
	tw := &twin{p: p, e: e, run: e.Run}
	if ref {
		tw.run = e.runRef
	}
	return tw
}

// state renders everything a phase leaves behind on a platform.
func (tw *twin) state() string {
	p := tw.p
	return fmt.Sprintf("clock=%d msr=%d/%d/%d/%d pkgJ=%v hwc=%+v pcu=%+v",
		p.Clock.Now(), p.MSR.Read(), p.MSRPP0.Read(), p.MSRPP1.Read(), p.MSRDRAM.Read(),
		p.PCU.TotalEnergy(), p.HWC.Raw(), p.PCU.Snapshot())
}

// runDiff plays steps on a platform driven by Engine.Run and on a twin
// driven by the reference loop, and requires identical results, MSR
// energy, counters, clock and PCU state after every step. It returns
// the memoized twin's traces for further checks.
func runDiff(t testing.TB, spec platform.Spec, slowFactor float64, steps []diffStep) []*trace.Set {
	t.Helper()
	got, want := newTwin(spec, slowFactor, false), newTwin(spec, slowFactor, true)
	var traces []*trace.Set
	for i, st := range steps {
		var gtr, wtr *trace.Set
		if st.Traced {
			gtr, wtr = trace.NewSet(), trace.NewSet()
			traces = append(traces, gtr)
		}
		if st.Idle > 0 {
			got.e.RunIdle(st.Idle, gtr)
			want.e.RunIdle(st.Idle, wtr)
		} else {
			gph, wph := st.Phase, st.Phase
			gph.Trace, wph.Trace = gtr, wtr
			gres, gerr := got.run(gph)
			wres, werr := want.run(wph)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d: error %v, reference %v", i, gerr, werr)
			}
			if gres != wres {
				t.Fatalf("step %d: result\n %+v\nreference\n %+v", i, gres, wres)
			}
		}
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("step %d: platform state\n %s\nreference\n %s", i, g, w)
		}
		if !reflect.DeepEqual(gtr, wtr) {
			t.Fatalf("step %d: traces differ from the reference", i)
		}
	}
	return traces
}

// tightTablet is the tablet with a 1.5 W budget, below what its GPU
// draws alone.
func tightTablet() platform.Spec {
	s := platform.TabletSpec()
	s.Policy.TDPW = 1.5
	return s
}

func phaseAt(k Kernel, n, alpha float64) Phase {
	return Phase{Kernel: k, GPUItems: alpha * n, PoolItems: (1 - alpha) * n}
}

// TestRunMatchesReference checks the memoized step loop against the
// verbatim pre-memo loop across the configurations the step math
// branches on.
func TestRunMatchesReference(t *testing.T) {
	compute := Kernel{Name: "compute", Cost: computeCost()}
	memory := Kernel{Name: "memory", Cost: memoryCost()}
	zeroTraffic := Kernel{Name: "no-traffic", Cost: device.CostProfile{FLOPs: 500, Instructions: 800},
		CPUSpeedFactor: 0.7, GPUSpeedFactor: 1.3}
	var alphaSweep []diffStep
	for _, k := range []Kernel{compute, memory} {
		for _, a := range []float64{0, 1e-12, 0.5, 1} {
			alphaSweep = append(alphaSweep,
				diffStep{Phase: phaseAt(k, 4e5, a)},
				diffStep{Idle: 200 * time.Microsecond})
		}
	}
	cases := []struct {
		name   string
		spec   platform.Spec
		slow   float64
		steps  []diffStep
		verify func(t *testing.T, traces []*trace.Set)
	}{
		{name: "desktop alpha sweep", spec: platform.DesktopSpec(), steps: alphaSweep},
		{name: "tablet alpha sweep", spec: platform.TabletSpec(), steps: alphaSweep},
		{
			// Long combined phases push the tablet over its TDP, so the
			// budget controller rescales both clocks step after step.
			name: "tablet TDP-limited", spec: platform.TabletSpec(),
			steps: []diffStep{
				{Phase: phaseAt(compute, 2e6, 0.5), Traced: true},
				{Phase: phaseAt(memory, 2e6, 0.4)},
			},
			verify: func(t *testing.T, traces []*trace.Set) {
				if traces[0].CPUFreq.Min() >= platform.TabletSpec().Policy.CPUBaseHz {
					t.Error("tablet phase never scaled below base clock; the TDP path is not covered")
				}
			},
		},
		{
			// Under a budget the GPU alone exceeds, the GPU clock falls
			// step after step while the idle CPU's stays put: only the
			// GPU frequency changes the step key.
			name: "GPU alone over budget", spec: tightTablet(),
			steps: []diffStep{
				{Phase: phaseAt(compute, 1e6, 1), Traced: true},
			},
			verify: func(t *testing.T, traces []*trace.Set) {
				if g := traces[0].GPUFreq; g.Min() == g.Max() {
					t.Error("GPU clock never moved; a GPU-only frequency change is not covered")
				}
			},
		},
		{
			name: "profiling phase", spec: platform.DesktopSpec(),
			steps: []diffStep{
				{Phase: Phase{Kernel: compute, GPUItems: 2240, PoolItems: 1e6, StopWhenGPUDone: true}},
				{Phase: Phase{Kernel: memory, GPUItems: 2240, PoolItems: 1e6, StopWhenGPUDone: true}, Traced: true},
			},
		},
		{
			name: "traced", spec: platform.DesktopSpec(),
			steps: []diffStep{
				{Phase: phaseAt(memory, 5e5, 0.3), Traced: true},
				{Idle: 3 * time.Millisecond, Traced: true},
				{Phase: phaseAt(compute, 5e5, 0.7), Traced: true},
			},
		},
		{
			name: "zero traffic and speed factors", spec: platform.DesktopSpec(),
			steps: []diffStep{
				{Phase: phaseAt(zeroTraffic, 1e6, 0.6)},
				{Phase: phaseAt(zeroTraffic, 1e6, 1)},
				{Phase: phaseAt(zeroTraffic, 10, 0.5)},
			},
		},
		{
			name: "slow GPU fault", spec: platform.DesktopSpec(), slow: 3,
			steps: []diffStep{
				{Phase: phaseAt(memory, 3e5, 0.5)},
				{Phase: phaseAt(memory, 3e5, 0.5)},
			},
		},
		{
			// A GPU kernel starting after a long idle, with the CPU
			// memory-bound, arms the Haswell reaction transient.
			name: "Haswell throttle transient", spec: platform.DesktopSpec(),
			steps: []diffStep{
				{Idle: 100 * time.Millisecond},
				{Phase: phaseAt(memory, 3e5, 0)},
				{Phase: phaseAt(memory, 3e6, 0.3), Traced: true},
			},
			verify: func(t *testing.T, traces []*trace.Set) {
				if traces[0].CPUFreq.Min() != platform.DesktopSpec().Policy.CPUMinHz {
					t.Error("CPU never throttled to its floor; the transient is not covered")
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			traces := runDiff(t, c.spec, c.slow, c.steps)
			if c.verify != nil {
				c.verify(t, traces)
			}
		})
	}
}

// FuzzEngineRun drives the memoized and reference loops through two
// phases with an idle gap between them, over random kernels, splits,
// speed factors, profiling stops, slow-GPU faults and both platforms.
func FuzzEngineRun(f *testing.F) {
	f.Add(false, 20000.0, 20.0, 0.02, uint32(100000), 0.5, 0.3, 1.0, 1.0, false, uint32(200), 1.0, false)
	f.Add(true, 10.0, 100.0, 0.6, uint32(300000), 0.5, 1.0, 0.8, 1.2, false, uint32(60000), 2.5, true)
	f.Add(false, 10.0, 100.0, 0.6, uint32(3000), 1e-12, 0.0, 1.0, 1.0, true, uint32(0), 1.0, true)
	f.Fuzz(func(t *testing.T, tablet bool, flops, memOps, miss float64, n uint32, alpha1, alpha2,
		cpuF, gpuF float64, stop bool, idleUs uint32, slow float64, traced bool) {
		finite := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return lo
			}
			return math.Min(math.Max(math.Abs(v), lo), hi)
		}
		spec := platform.DesktopSpec()
		if tablet {
			spec = platform.TabletSpec()
		}
		k := Kernel{
			Name: "fuzz",
			Cost: device.CostProfile{
				FLOPs:        finite(flops, 1, 5e4),
				MemOps:       finite(memOps, 0, 200),
				L3MissRatio:  finite(miss, 0, 1),
				Instructions: 100,
			},
			CPUSpeedFactor: finite(cpuF, 0, 4),
			GPUSpeedFactor: finite(gpuF, 0, 4),
		}
		items := float64(1 + n%200000)
		a1, a2 := finite(alpha1, 0, 1), finite(alpha2, 0, 1)
		first := phaseAt(k, items, a1)
		if stop && first.GPUItems > 0 {
			first.StopWhenGPUDone = true
		}
		runDiff(t, spec, finite(slow, 1, 8), []diffStep{
			{Phase: first, Traced: traced},
			{Idle: time.Duration(idleUs%100000) * time.Microsecond, Traced: traced},
			{Phase: phaseAt(k, items, a2), Traced: traced},
		})
	})
}
