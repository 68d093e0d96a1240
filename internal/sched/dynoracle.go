package sched

import (
	"context"
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/workloads"
)

// dynOracle is a per-invocation greedy oracle: before every kernel
// invocation it tries each α on the grid from the *current* platform
// state (using simulation rollback, which no real system has), commits
// the best, and moves on. Unlike the paper's Oracle — the best single
// fixed ratio for the whole application — it adapts per invocation, so
// it upper-bounds what adaptive schedulers like EAS can gain from
// per-invocation decisions. Greedy minimization of each invocation's
// metric contribution is a heuristic for non-additive metrics (EDP),
// exact for energy.
type dynOracle struct {
	step float64
}

// DynOracle returns the dynamic per-invocation oracle.
func DynOracle(step float64) Strategy { return dynOracle{step: oracleStep(step)} }

func (d dynOracle) Name() string { return "DynOracle" }

func (d dynOracle) Run(ctx context.Context, w workloads.Workload, spec platform.Spec, _ *powerchar.Model, metric metrics.Metric, seed int64) (Result, error) {
	invs, err := w.Schedule(spec.Name, seed)
	if err != nil {
		return Result{}, err
	}
	p, err := platform.New(spec)
	if err != nil {
		return Result{}, err
	}
	eng := engine.New(p)
	alphas := AlphaGrid(d.step)
	var total time.Duration
	var energy, gpuItems, allItems float64
	// The what-if probes share one platform via snapshot/rollback, so
	// this strategy cannot fan out; it still honours cancellation
	// between invocations.
	for _, inv := range invs {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		n := float64(inv.N)
		snap := p.Snapshot()
		bestAlpha, bestVal := 0.0, 0.0
		found := false
		for _, a := range alphas {
			res, err := eng.Run(engine.Phase{
				Kernel:    inv.Kernel,
				GPUItems:  a * n,
				PoolItems: (1 - a) * n,
			})
			if err != nil {
				return Result{}, fmt.Errorf("sched: dyn oracle on %s: %w", w.Abbrev, err)
			}
			v := metric.EvalEnergy(res.EnergyJ, res.Duration.Seconds())
			p.Restore(snap)
			if !found || v < bestVal {
				found = true
				bestVal = v
				bestAlpha = a
			}
		}
		// Commit the winner.
		res, err := eng.Run(engine.Phase{
			Kernel:    inv.Kernel,
			GPUItems:  bestAlpha * n,
			PoolItems: (1 - bestAlpha) * n,
		})
		if err != nil {
			return Result{}, err
		}
		total += res.Duration
		energy += res.EnergyJ
		gpuItems += res.GPUItems
		allItems += n
		eng.RunIdle(InterInvocationGap, nil)
	}
	share := 0.0
	if allItems > 0 {
		share = gpuItems / allItems
	}
	return Result{
		Strategy: "DynOracle", Workload: w.Abbrev, Platform: spec.Name,
		Duration: total, EnergyJ: energy,
		Value:       metric.EvalEnergy(energy, total.Seconds()),
		GPUShare:    share,
		Invocations: len(invs),
	}, nil
}
