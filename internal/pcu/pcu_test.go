package pcu

import (
	"testing"
	"time"

	"github.com/hetsched/eas/internal/device"
)

func testPolicy() Policy {
	return Policy{
		CPUTurboHz: 3.9e9, CPUBaseHz: 3.4e9, CPUMinHz: 0.8e9,
		GPUTurboHz: 1.2e9, GPUBaseHz: 0.35e9,
		TDPW:               84,
		ThrottleOnGPUStart: true,
		ReactionWindow:     120 * time.Millisecond,
		IdleHysteresis:     50 * time.Millisecond,
		BudgetGain:         2,
	}
}

func testModel() PowerModel {
	return PowerModel{
		IdleW:           12,
		CPUCoreComputeW: 8.25, CPUCoreStallW: 6.5, CPURefHz: 3.9e9, CPUFreqExp: 1.8,
		GPUComputeW: 18, GPUStallW: 4, GPURefHz: 1.2e9, GPUFreqExp: 1.8,
		DRAMWPerGBs: 0.85,
	}
}

func tick() time.Duration { return time.Millisecond }

func cpuLoad(cores, hz, memShare, bw float64) device.Load {
	return device.Load{Active: 1, ActiveCores: cores, Hz: hz, MemShare: memShare, MemBytesPerSec: bw}
}

func gpuLoad(hz, memShare, bw float64) device.Load {
	return device.Load{Active: 1, Hz: hz, MemShare: memShare, MemBytesPerSec: bw}
}

func TestValidation(t *testing.T) {
	if err := testPolicy().Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if err := testModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	p := testPolicy()
	p.CPUBaseHz = 0.1e9 // below min
	if p.Validate() == nil {
		t.Error("disordered CPU DVFS accepted")
	}
	p = testPolicy()
	p.TDPW = 0
	if p.Validate() == nil {
		t.Error("zero TDP accepted")
	}
	m := testModel()
	m.CPUFreqExp = 5
	if m.Validate() == nil {
		t.Error("absurd frequency exponent accepted")
	}
	m = testModel()
	m.DRAMWPerGBs = -1
	if m.Validate() == nil {
		t.Error("negative DRAM coefficient accepted")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid policy")
		}
	}()
	bad := testPolicy()
	bad.TDPW = -1
	New(bad, testModel())
}

func TestPackagePowerAnchors(t *testing.T) {
	m := testModel()
	// Idle package.
	b := m.Package(device.Load{}, device.Load{})
	if b.Total() != 12 {
		t.Errorf("idle power = %v, want 12", b.Total())
	}
	// Compute-bound CPU alone at turbo: 12 + 4×8.25 = 45 W.
	b = m.Package(cpuLoad(4, 3.9e9, 0, 0.2e9), device.Load{})
	if got := b.Total(); got < 43 || got > 47 {
		t.Errorf("CPU-alone compute power = %v, want ≈45", got)
	}
	// Compute-bound GPU alone at turbo: 12 + 18 = 30 W.
	b = m.Package(device.Load{}, gpuLoad(1.2e9, 0, 0.5e9))
	if got := b.Total(); got < 29 || got > 32 {
		t.Errorf("GPU-alone compute power = %v, want ≈30", got)
	}
	// Memory-bound CPU alone: 12 + 4×6.5 + 0.85×23 ≈ 57.6 W.
	b = m.Package(cpuLoad(4, 3.9e9, 1, 23e9), device.Load{})
	if got := b.Total(); got < 52 || got > 63 {
		t.Errorf("CPU-alone memory power = %v, want ≈58", got)
	}
}

func TestPowerBlendsWithMemShare(t *testing.T) {
	m := testModel()
	comp := m.Package(cpuLoad(4, 3.9e9, 0, 0), device.Load{}).CPU
	stall := m.Package(cpuLoad(4, 3.9e9, 1, 0), device.Load{}).CPU
	mid := m.Package(cpuLoad(4, 3.9e9, 0.5, 0), device.Load{}).CPU
	if stall >= comp {
		t.Errorf("stalled cores should draw less than computing cores: %v vs %v", stall, comp)
	}
	want := (comp + stall) / 2
	if diff := mid - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mid blend = %v, want %v", mid, want)
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	m := testModel()
	hi := m.Package(cpuLoad(4, 3.9e9, 0, 0), device.Load{}).CPU
	lo := m.Package(cpuLoad(4, 0.8e9, 0, 0), device.Load{}).CPU
	if lo >= hi/5 {
		t.Errorf("throttled core power %v should be tiny vs %v", lo, hi)
	}
}

func TestFrequenciesPolicy(t *testing.T) {
	p := New(testPolicy(), testModel())
	// CPU alone: turbo.
	c, _ := p.Frequencies(true, false)
	if c != 3.9e9 {
		t.Errorf("CPU-alone freq = %v, want turbo", c)
	}
	// GPU busy: CPU drops to base, GPU turbos.
	c, g := p.Frequencies(true, true)
	if c != 3.4e9 || g != 1.2e9 {
		t.Errorf("combined freqs = %v,%v, want 3.4e9,1.2e9", c, g)
	}
	// GPU idle: GPU parked at base.
	_, g = p.Frequencies(true, false)
	if g != 0.35e9 {
		t.Errorf("idle GPU freq = %v, want base", g)
	}
}

func TestThrottleTransientLifecycle(t *testing.T) {
	p := New(testPolicy(), testModel())
	// Warm up with memory-stalled CPU work so the throttle gate sees a
	// memory-bound workload.
	for i := 0; i < 100; i++ {
		p.Observe(cpuLoad(4, 3.9e9, 1, 23e9), device.Load{}, tick())
	}
	// Cold GPU: kernel start arms the throttle.
	p.NoteGPUKernelStart()
	if !p.Throttled() {
		t.Fatal("kernel start after long idle should arm throttle")
	}
	c, _ := p.Frequencies(true, true)
	if c != 0.8e9 {
		t.Errorf("throttled CPU freq = %v, want min 0.8e9", c)
	}
	// The throttle decays over the reaction window while the GPU runs.
	for i := 0; i < 301; i++ {
		p.Observe(cpuLoad(4, 0.8e9, 1, 13e9), gpuLoad(1.2e9, 1, 12e9), tick())
		if !p.Throttled() {
			break
		}
	}
	if p.Throttled() {
		t.Error("throttle should expire after the reaction window")
	}
	c, _ = p.Frequencies(true, true)
	if c != 3.4e9 {
		t.Errorf("post-transient combined CPU freq = %v, want base", c)
	}
}

func TestThrottleHysteresis(t *testing.T) {
	p := New(testPolicy(), testModel())
	p.NoteGPUKernelStart()
	for p.Throttled() {
		p.Observe(cpuLoad(4, 0.8e9, 1, 13e9), gpuLoad(1.2e9, 1, 12e9), tick())
	}
	// Back-to-back kernel: GPU was just busy, so no re-trigger.
	p.NoteGPUKernelStart()
	if p.Throttled() {
		t.Error("back-to-back kernel start should not re-arm throttle")
	}
	// After a long GPU-idle stretch it re-arms.
	for i := 0; i < 60; i++ {
		p.Observe(cpuLoad(4, 3.9e9, 1, 23e9), device.Load{}, tick())
	}
	p.NoteGPUKernelStart()
	if !p.Throttled() {
		t.Error("kernel start after long idle should re-arm throttle")
	}
}

func TestNoThrottlePolicy(t *testing.T) {
	pol := testPolicy()
	pol.ThrottleOnGPUStart = false
	p := New(pol, testModel())
	p.NoteGPUKernelStart()
	if p.Throttled() {
		t.Error("tablet-style policy should never arm the throttle")
	}
}

func TestBudgetControllerConverges(t *testing.T) {
	pol := testPolicy()
	pol.TDPW = 30 // force the budget to bind
	p := New(pol, testModel())
	var lastW float64
	for i := 0; i < 3000; i++ {
		c, g := p.Frequencies(true, true)
		b := p.Observe(cpuLoad(4, c, 0, 0.5e9), gpuLoad(g, 0, 0.5e9), tick())
		lastW = b.Total()
	}
	if lastW > pol.TDPW*1.15 {
		t.Errorf("steady-state power %v exceeds TDP %v by >15%%", lastW, pol.TDPW)
	}
	if p.BudgetScale() >= 1 {
		t.Error("budget scale should have dropped below 1 under a binding TDP")
	}
}

func TestBudgetControllerRecovers(t *testing.T) {
	pol := testPolicy()
	pol.TDPW = 30
	p := New(pol, testModel())
	for i := 0; i < 2000; i++ {
		c, g := p.Frequencies(true, true)
		p.Observe(cpuLoad(4, c, 0, 0.5e9), gpuLoad(g, 0, 0.5e9), tick())
	}
	squeezed := p.BudgetScale()
	// Go idle: scale recovers toward 1.
	for i := 0; i < 3000; i++ {
		p.Observe(device.Load{}, device.Load{}, tick())
	}
	if p.BudgetScale() <= squeezed {
		t.Errorf("budget scale should recover when idle: %v -> %v", squeezed, p.BudgetScale())
	}
}

func TestEnergyIntegration(t *testing.T) {
	p := New(testPolicy(), testModel())
	// One second of idle at 12 W = 12 J.
	for i := 0; i < 1000; i++ {
		p.Observe(device.Load{}, device.Load{}, tick())
	}
	got := p.TotalEnergy()
	if got < 11.9 || got > 12.1 {
		t.Errorf("idle energy = %v J, want 12", got)
	}
	p.Reset()
	if p.TotalEnergy() != 0 {
		t.Error("Reset should clear accumulated energy")
	}
}

func TestFrequencyFloorUnderBudget(t *testing.T) {
	pol := testPolicy()
	pol.TDPW = 1 // impossible budget
	p := New(pol, testModel())
	for i := 0; i < 5000; i++ {
		c, g := p.Frequencies(true, true)
		if c < pol.CPUMinHz || g < pol.GPUBaseHz {
			t.Fatalf("frequencies fell below floors: cpu=%v gpu=%v", c, g)
		}
		p.Observe(cpuLoad(4, c, 0, 0), gpuLoad(g, 0, 0), tick())
	}
}

func thermalPolicy() Policy {
	p := testPolicy()
	p.ThermalResistanceKPerW = 0.5
	p.ThermalCapacitanceJPerK = 5
	p.AmbientC = 35
	p.ThrottleTempC = 60
	return p
}

func TestThermalModelHeatsAndCools(t *testing.T) {
	p := New(thermalPolicy(), testModel())
	if p.Temperature() != 35 {
		t.Fatalf("boot temperature = %v, want ambient 35", p.Temperature())
	}
	// Sustained 45 W load: steady state = 35 + 0.5×45 = 57.5°C.
	for i := 0; i < 60000; i++ {
		p.Observe(cpuLoad(4, 3.9e9, 0, 0.2e9), device.Load{}, tick())
	}
	if temp := p.Temperature(); temp < 54 || temp > 60 {
		t.Errorf("steady temperature = %v, want ≈57.5", temp)
	}
	hot := p.Temperature()
	// Idle: decays toward ambient.
	for i := 0; i < 30000; i++ {
		p.Observe(device.Load{}, device.Load{}, tick())
	}
	if p.Temperature() >= hot-5 {
		t.Errorf("temperature should decay when idle: %v -> %v", hot, p.Temperature())
	}
}

func TestThermalThrottleEngages(t *testing.T) {
	// Low throttle point: a combined load (≈63 W, steady 66.5°C) must
	// trip the 60°C limit and pull the frequency scale down even
	// though the 84 W power budget never binds.
	p := New(thermalPolicy(), testModel())
	for i := 0; i < 60000; i++ {
		c, g := p.Frequencies(true, true)
		p.Observe(cpuLoad(4, c, 0, 0.5e9), gpuLoad(g, 0, 0.5e9), tick())
	}
	if p.BudgetScale() >= 1 {
		t.Errorf("thermal throttle should have engaged: scale %v at %v°C", p.BudgetScale(), p.Temperature())
	}
	if p.Temperature() > 75 {
		t.Errorf("throttle failed to arrest heating: %v°C", p.Temperature())
	}
}

func TestThermalValidation(t *testing.T) {
	bad := thermalPolicy()
	bad.ThermalCapacitanceJPerK = 0
	if bad.Validate() == nil {
		t.Error("zero capacitance accepted")
	}
	bad = thermalPolicy()
	bad.ThrottleTempC = 20 // below ambient
	if bad.Validate() == nil {
		t.Error("throttle below ambient accepted")
	}
	// Disabled model skips thermal checks entirely.
	off := testPolicy()
	off.ThermalResistanceKPerW = 0
	if err := off.Validate(); err != nil {
		t.Errorf("disabled thermal model rejected: %v", err)
	}
}

// TestPackageMemoMatchesRecompute drives two PCUs through the same load
// sequence — repeats, a single-field change in each position, zero
// loads, and a snapshot/restore — one of them with its Package memo
// cleared before every step. Breakdowns and state must agree exactly.
func TestPackageMemoMatchesRecompute(t *testing.T) {
	memo, ref := New(testPolicy(), testModel()), New(testPolicy(), testModel())
	c, g := cpuLoad(3.9, 3.4e9, 0.6, 2e9), gpuLoad(1.2e9, 0.3, 4e9)
	steps := [][2]device.Load{
		{c, g}, {c, g}, {c, g},
		{{}, {}}, {{}, {}},
		{c, g},
	}
	for i := 0; i < 5; i++ {
		cc, gg := c, g
		f := []*float64{&cc.Active, &cc.ActiveCores, &cc.Hz, &cc.MemBytesPerSec, &cc.MemShare}[i]
		*f *= 0.5
		h := []*float64{&gg.Active, &gg.ActiveCores, &gg.Hz, &gg.MemBytesPerSec, &gg.MemShare}[i]
		*h += 0.25
		steps = append(steps, [2]device.Load{cc, g}, [2]device.Load{c, gg}, [2]device.Load{c, g})
	}
	var snapM, snapR State
	for i, st := range steps {
		if i == 4 {
			snapM, snapR = memo.Snapshot(), ref.Snapshot()
		}
		ref.memo = packageMemo{}
		bm := memo.Observe(st[0], st[1], tick())
		br := ref.Observe(st[0], st[1], tick())
		if want := testModel().Package(st[0], st[1]); bm != want || br != want {
			t.Fatalf("step %d: memoized %+v, recomputed %+v, model %+v", i, bm, br, want)
		}
		if memo.Snapshot() != ref.Snapshot() {
			t.Fatalf("step %d: state diverged", i)
		}
	}
	memo.Restore(snapM)
	ref.Restore(snapR)
	if bm, br := memo.Observe(c, g, tick()), ref.Observe(c, g, tick()); bm != br || memo.Snapshot() != ref.Snapshot() {
		t.Fatalf("after restore: %+v vs %+v", bm, br)
	}
}
