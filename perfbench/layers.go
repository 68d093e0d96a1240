package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/cl"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/profile"
	"github.com/hetsched/eas/internal/robust"
	"github.com/hetsched/eas/internal/wclass"
	"github.com/hetsched/eas/internal/ws"
)

// replayer repeats, on layer instances the benchmark owns, the layer
// calls one request made inside the Runtime, with the same inputs, and
// times each with a span. It takes every decision from the request's
// Report (Profiled, ProfileSteps, Category, Alpha, the item split) and
// makes none of its own. Each caller goroutine owns one replayer, so
// replays never contend with each other or with the runtime under test.
type replayer struct {
	rec         *recorder
	eng         *engine.Engine
	model       *powerchar.Model
	metric      metrics.Metric
	profileSize float64
	tiered      bool
	adm         core.Admission
	meter       *robust.EnergyMeter // nil unless the runtime meters robustly
	pool        *ws.Pool            // nil unless requests carry bodies
	queue       *cl.CommandQueue
	// mismatches counts replayed α searches that disagreed with the
	// Report's α; a replay that does not reproduce the runtime's
	// decision is not measuring the same work.
	mismatches int
}

// replayOptions mirrors the parts of the runtime's Config the replay
// must match.
type replayOptions struct {
	tiered     bool
	watchdog   time.Duration
	robust     bool
	functional bool
	workers    int
}

func newReplayer(rec *recorder, model *powerchar.Model, o replayOptions) (*replayer, error) {
	spec := platform.DesktopSpec()
	p, err := platform.New(spec)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		rec:         rec,
		eng:         engine.New(p),
		model:       model,
		metric:      metrics.EDP,
		profileSize: float64(p.GPUProfileSize()),
		tiered:      o.tiered,
	}
	if o.tiered {
		r.adm.Configure(core.TieredOptions{Watchdog: o.watchdog})
	}
	if o.robust {
		// The runtime's defaults for a zero Robustness config.
		r.meter = robust.NewEnergyMeter(p.MSR, robust.MeterConfig{
			MaxPlausiblePowerW: 4 * spec.Policy.TDPW, Window: 5, HampelK: 8, StuckReads: 4,
		})
	}
	if o.functional {
		r.pool = ws.NewPool(o.workers)
		r.queue = cl.NewCommandQueue(cl.NewContext(p))
	}
	return r, nil
}

func noopBody(int) {}

// replay times the layer calls behind one request. parent is the
// request's eas.invoke span.
func (r *replayer) replay(req int64, parent int32, k eas.Kernel, n int, rep *eas.Report, areq core.AdmitRequest) error {
	ctx := context.Background()
	if r.tiered {
		h := r.rec.begin(spanTieredAcquire, req, parent)
		ticket, err := r.adm.AcquireTiered(ctx, areq, nil)
		if err != nil {
			return fmt.Errorf("replay tiered admission: %w", err)
		}
		r.adm.ReleaseTiered(ticket)
		r.rec.end(h)
	} else {
		h := r.rec.begin(spanAcquire, req, parent)
		if err := r.adm.Acquire(ctx); err != nil {
			return fmt.Errorf("replay admission: %w", err)
		}
		r.adm.Release()
		r.rec.end(h)
	}

	ek := engineKernel(k)
	nrem := float64(n)
	alpha := rep.Alpha
	if float64(n) < r.profileSize {
		alpha = 0
	} else if rep.Profiled {
		var err error
		if nrem, err = r.replayDecision(req, parent, ek, n, rep); err != nil {
			return err
		}
	}
	if nrem > 0 {
		h := r.rec.begin(spanEngineRun, req, parent)
		res, err := r.eng.Run(engine.Phase{Kernel: ek, GPUItems: alpha * nrem, PoolItems: (1 - alpha) * nrem})
		r.rec.end(h)
		if err != nil {
			return fmt.Errorf("replay engine run: %w", err)
		}
		r.measure(req, parent, res.Duration)
	}
	if r.pool != nil {
		r.replayFunctional(req, parent, k, n, alpha)
	}
	return nil
}

// replayDecision replays online profiling, classification and the α
// search of a profiled request, returning the items left after
// profiling.
func (r *replayer) replayDecision(req int64, parent int32, ek engine.Kernel, n int, rep *eas.Report) (float64, error) {
	nrem := float64(n)
	chunk := r.profileSize
	var acc profile.Observation
	for step := 0; step < rep.ProfileSteps && nrem > 0; step++ {
		gpuChunk := math.Min(chunk, nrem)
		h := r.rec.begin(spanProfileStep, req, parent)
		ob, remaining, err := profile.Step(r.eng, ek, gpuChunk, nrem-gpuChunk)
		r.rec.end(h)
		if err != nil {
			return 0, fmt.Errorf("replay profile step: %w", err)
		}
		r.measure(req, parent, ob.Duration)
		if step == 0 {
			acc = ob
		} else {
			acc = profile.Merge(acc, ob)
		}
		nrem = remaining
		chunk *= 2
	}
	searchN := math.Max(nrem, float64(n)/2)
	h := r.rec.begin(spanClassify, req, parent)
	cat := acc.Classify(searchN)
	r.rec.end(h)
	if want, err := wclass.ParseKey(rep.Category); err == nil && want != cat {
		// The replay's profile drifted from the runtime's; search the
		// curve the runtime searched.
		cat = want
	}
	curve, ok := r.model.Curve(cat)
	if !ok {
		return 0, fmt.Errorf("replay: no curve for category %s", cat)
	}
	h = r.rec.begin(spanAlphaSearch, req, parent)
	alpha, _ := core.BestAlpha(curve, core.TimeModel{RC: acc.RC, RG: acc.RG}, searchN, r.metric, 0.1)
	r.rec.end(h)
	if math.Abs(alpha-rep.Alpha) > 1e-9 {
		r.mismatches++
	}
	return nrem, nil
}

// measure replays one robust-meter sample when the runtime meters
// robustly.
func (r *replayer) measure(req int64, parent int32, d time.Duration) {
	if r.meter == nil {
		return
	}
	h := r.rec.begin(spanRobustMeasure, req, parent)
	r.meter.Measure(d, 0)
	r.rec.end(h)
}

// replayFunctional replays the functional dispatch of a request's item
// split with an empty body: the CPU share on a work-stealing pool and
// the GPU share through a command queue, enqueue to wait. Kernel bodies
// are not re-run — they mutate the app's state — so the replay times
// the dispatch machinery and leaves body time in eas.unattributed_ns.
func (r *replayer) replayFunctional(req int64, parent int32, k eas.Kernel, n int, alpha float64) {
	gpuItems := int(alpha * float64(n))
	if gpuItems > n {
		gpuItems = n
	}
	if gpuItems > 0 {
		h := r.rec.begin(spanCLDispatch, req, parent)
		if ev, err := r.queue.EnqueueNDRange(cl.Kernel{Name: k.Name, Body: noopBody}, 0, gpuItems); err == nil {
			_ = ev.Wait() // an empty body cannot fail
		}
		r.rec.end(h)
	}
	if cpu := n - gpuItems; cpu > 0 {
		h := r.rec.begin(spanWSParallelFor, req, parent)
		_ = r.pool.ParallelFor(cpu, 0, noopBody) // an empty body cannot fail
		r.rec.end(h)
	}
}

// engineKernel converts a public kernel to the engine's form, as the
// runtime does.
func engineKernel(k eas.Kernel) engine.Kernel {
	return engine.Kernel{Name: k.Name, Cost: costOf(k)}
}
