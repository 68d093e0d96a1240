package engine

import (
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/msr"
)

// runRef is Engine.Run as it was before the per-phase step memo: it
// recomputes frequencies' consequences (throughputs, bandwidth shares,
// device loads) on every step. The differential tests require Run to
// match it bit for bit; keep it verbatim.
func (e *Engine) runRef(ph Phase) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ph.Kernel.Cost.Validate(); err != nil {
		return Result{}, fmt.Errorf("engine: kernel %q: %w", ph.Kernel.Name, err)
	}
	if ph.GPUItems < 0 || ph.PoolItems < 0 {
		return Result{}, fmt.Errorf("engine: negative work in phase for kernel %q", ph.Kernel.Name)
	}
	if ph.StopWhenGPUDone && ph.GPUItems <= 0 {
		return Result{}, fmt.Errorf("engine: profiling phase for kernel %q has no GPU items", ph.Kernel.Name)
	}

	// GPU dispatch faults resolve before any simulation state advances,
	// so callers can retry or degrade without rollback.
	gpuSlowdown := 1.0
	if ph.GPUItems > epsilon {
		if e.faults.TakeGPUBusy() {
			return Result{}, fmt.Errorf("engine: kernel %q dispatch: %w", ph.Kernel.Name, ErrGPUBusy)
		}
		gpuSlowdown = e.faults.TakeSlowGPU()
	}

	spec := &e.spec
	cost := ph.Kernel.Cost
	traffic := cost.TrafficBytes()

	meter := msr.NewMeter(e.p.MSR)
	counters0 := e.p.HWC.Snapshot()
	start := e.p.Clock.Now()

	var res Result
	gpuRemaining := ph.GPUItems
	pool := ph.PoolItems
	launchRemaining := time.Duration(0)
	if gpuRemaining > epsilon {
		e.p.PCU.NoteGPUKernelStart()
		launchRemaining = spec.GPU.LaunchOverhead
	}

	for {
		cpuBusy := pool > epsilon
		gpuBusy := gpuRemaining > epsilon
		if !cpuBusy && !gpuBusy {
			break
		}
		if ph.StopWhenGPUDone && !gpuBusy {
			break
		}
		now := e.p.Clock.Now()
		if now-start > MaxPhaseDuration {
			return res, fmt.Errorf("%w (kernel %q)", ErrPhaseTimeout, ph.Kernel.Name)
		}

		cpuHz, gpuHz := e.p.PCU.Frequencies(cpuBusy, gpuBusy)

		// Worker cores: the GPU proxy thread costs a fraction of one
		// core whenever a kernel is in flight.
		workerCores := 0.0
		if cpuBusy {
			workerCores = float64(spec.CPU.Cores)
			if gpuBusy {
				workerCores -= spec.ProxyCoreFraction
			}
		}

		// Compute-side throughputs (pre-bandwidth).
		cpuTPc := 0.0
		if cpuBusy {
			cpuTPc = spec.CPU.ComputeThroughput(cpuHz, cost, workerCores) * ph.Kernel.cpuFactor()
		}
		gpuTPc := 0.0
		gpuExecuting := gpuBusy && launchRemaining <= 0
		if gpuExecuting {
			// Occupancy depends on the enqueued NDRange size, not the
			// instantaneous remainder: hardware retires the final wave
			// of a large kernel at full rate, while a small kernel
			// under-fills the machine for its whole run.
			gpuTPc = spec.GPU.ComputeThroughput(gpuHz, cost, ph.GPUItems) * ph.Kernel.gpuFactor()
		}

		// Bandwidth arbitration, with extractable bandwidth reduced for
		// down-clocked devices.
		cpuAlloc, gpuAlloc := spec.Memory.ShareBandwidthScaled(
			device.BandwidthDemand(cpuTPc, cost),
			device.BandwidthDemand(gpuTPc, cost),
			device.FreqBandwidthScale(cpuHz, spec.Policy.CPUTurboHz),
			device.FreqBandwidthScale(gpuHz, spec.Policy.GPUTurboHz),
		)
		cpuTP := cpuTPc
		if bw := device.BandwidthLimitedThroughput(cpuAlloc, cost); bw < cpuTP {
			cpuTP = bw
		}
		gpuTP := gpuTPc
		if bw := device.BandwidthLimitedThroughput(gpuAlloc, cost); bw < gpuTP {
			gpuTP = bw
		}
		// An injected slow device retires items below its modeled rate
		// whatever the limiter (compute or bandwidth) — the shape of a
		// thermally throttled or contended GPU.
		gpuTP /= gpuSlowdown

		// Step length: capped at the tick, shortened to hit events.
		dt := spec.Tick
		if launchRemaining > 0 && launchRemaining < dt {
			dt = launchRemaining
		}
		if cpuTP > 0 {
			if d := durationFor(pool / cpuTP); d < dt {
				dt = d
			}
		}
		if gpuTP > 0 {
			if d := durationFor(gpuRemaining / gpuTP); d < dt {
				dt = d
			}
		}
		if dt < minStep {
			dt = minStep
		}
		dts := dt.Seconds()

		// Retire work.
		cpuDone := minf(pool, cpuTP*dts)
		gpuDone := minf(gpuRemaining, gpuTP*dts)
		pool -= cpuDone
		gpuRemaining -= gpuDone
		res.CPUItems += cpuDone
		res.GPUItems += gpuDone
		if cpuBusy {
			res.CPUBusy += dt
		}
		if gpuExecuting {
			// Busy time counts kernel execution only, matching the
			// OpenCL event profiling (COMMAND_START/END) the runtime's
			// throughput measurements would use on hardware; the
			// launch window still contributes to Duration.
			res.GPUBusy += dt
		}
		if launchRemaining > 0 {
			launchRemaining -= dt
		}

		// CPU hardware counters see only CPU-retired items.
		e.p.HWC.Account(cpuDone, cost.MissesPerItem(), cost.Instructions, cost.MemOps)

		// Report realized loads to the PCU.
		cpuLoad := device.Load{Hz: cpuHz}
		if cpuBusy || gpuBusy {
			powerCores := workerCores
			if gpuBusy {
				powerCores += spec.ProxyCoreFraction // proxy spins while GPU runs
			}
			if powerCores > 0 {
				cpuLoad.Active = 1
				cpuLoad.ActiveCores = powerCores
				cpuLoad.MemShare = device.MemStallShare(cpuTPc, device.BandwidthLimitedThroughput(cpuAlloc, cost))
				cpuLoad.MemBytesPerSec = cpuTP * traffic
			}
		}
		gpuLoad := device.Load{Hz: gpuHz}
		if gpuBusy {
			gpuLoad.Active = 1
			gpuLoad.MemShare = device.MemStallShare(gpuTPc, device.BandwidthLimitedThroughput(gpuAlloc, cost))
			gpuLoad.MemBytesPerSec = gpuTP * traffic
		}
		bk := e.p.PCU.Observe(cpuLoad, gpuLoad, dt)

		if ph.Trace != nil {
			e.record(ph.Trace, now, bk, cpuLoad, gpuLoad)
		}
		e.p.Clock.AdvanceExact(dt)
	}

	res.Duration = e.p.Clock.Now() - start
	res.PoolRemaining = pool
	res.EnergyJ = meter.Joules()
	res.Counters = e.p.HWC.Snapshot().Sub(counters0)
	return res, nil
}
