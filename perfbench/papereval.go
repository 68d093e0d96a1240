package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/report"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/workloads"
)

// figure is one of the paper's Figs. 9-12.
type figure struct{ platform, metric string }

var figures = []figure{{"desktop", "edp"}, {"desktop", "energy"}, {"tablet", "edp"}, {"tablet", "energy"}}

func (f figure) metricName() string { return "oracle_pct." + f.platform + "_" + f.metric }

// The Oracle is the best fixed α of a whole run on a 0.1 grid. On a
// regular workload EAS can beat it by a hair only; on an irregular one
// (invocation sizes that ramp or shrink) EAS adapts per invocation,
// which no fixed α can, and EXPERIMENTS.md measures a per-invocation
// oracle up to 115.5% of the fixed one. A cell where EAS reads above
// 100% of the Oracle by more than these tolerances is wrong.
const (
	regularTolerancePct   = 2.0
	irregularTolerancePct = 20.0
)

// evaluation is one pass over Figs. 9-12.
type evaluation struct {
	quality map[string]float64 // EAS average % of Oracle per figure
	seconds []float64          // time per figure, net of host steal
	simEDP  float64            // mean EAS EDP per Fig. 9 workload
	cells   int
	failed  int
	first   error
}

// evaluate runs report.Evaluate for every figure at Oracle step 0.1 and
// checks every cell: finite, positive, EAS no better than the Oracle
// beyond the workload's tolerance.
func evaluate(seed int64, models map[string]*powerchar.Model) (evaluation, error) {
	ev := evaluation{quality: map[string]float64{}}
	for _, f := range figures {
		t := startTimer()
		fig, err := report.Evaluate(f.platform, f.metric, report.Options{Seed: seed, OracleStep: 0.1, Model: models[f.platform]})
		d := t.elapsed()
		ev.seconds = append(ev.seconds, d.Seconds())
		if err != nil {
			return ev, fmt.Errorf("evaluate %s/%s: %w", f.platform, f.metric, err)
		}
		ev.quality[f.metricName()] = fig.Average("EAS")
		var edp float64
		for _, w := range fig.Workloads {
			tol := regularTolerancePct
			if wl, ok := workloads.ByAbbrev(w); ok && wl.Irregular {
				tol = irregularTolerancePct
			}
			if v := fig.Oracle[w].Value; !finitePositive(v) {
				ev.fail(fmt.Errorf("%s %s: Oracle value %v", fig.ID, w, v))
			}
			for _, s := range fig.Strategies {
				c := fig.Cells[w][s]
				ev.cells++
				if !finitePositive(c.Value) || !finitePositive(c.EfficiencyPct) {
					ev.fail(fmt.Errorf("%s %s/%s: value %v, efficiency %v", fig.ID, w, s, c.Value, c.EfficiencyPct))
				} else if s == "EAS" && c.EfficiencyPct > 100+tol {
					ev.fail(fmt.Errorf("%s %s: EAS at %.2f%% of Oracle", fig.ID, w, c.EfficiencyPct))
				}
			}
			edp += fig.Cells[w]["EAS"].Value
		}
		if f == figures[0] {
			ev.simEDP = edp / float64(len(fig.Workloads))
		}
	}
	return ev, nil
}

func (ev *evaluation) fail(err error) {
	ev.failed++
	if ev.first == nil {
		ev.first = err
	}
}

// characterizeAll runs the uncached characterization of both platforms.
func characterizeAll(rec *recorder) (map[string]*powerchar.Model, error) {
	models := map[string]*powerchar.Model{}
	for _, name := range []string{"desktop", "tablet"} {
		m, err := characterize(rec, name)
		if err != nil {
			return nil, err
		}
		models[name] = m
	}
	return models, nil
}

// addQuality fills the oracle_pct.* metrics from one evaluation pass,
// run after the workload's timed part. Every workload reports every
// end-to-end metric, and decision quality is the paper's headline
// result; the figures are deterministic, so this adds no noise.
func (o *outcome) addQuality(p params) error {
	models, err := characterizeAll(nil)
	if err != nil {
		return err
	}
	ev, err := evaluate(p.seed, models)
	if err != nil {
		return err
	}
	o.tally(ev.cells, ev.failed, ev.first)
	for k, v := range ev.quality {
		o.e2e[k] = v
	}
	return nil
}

func runPaperEval(p params) (*outcome, error) {
	out := newOutcome()
	out.owns(groupEval)
	setupRec := p.newRecorder(-1)
	setup, err := medianSetup(p.setupReps(), func() error {
		_, err := characterizeAll(setupRec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.e2e["setup_s"] = setup
	models, err := characterizeAll(nil)
	if err != nil {
		return nil, err
	}

	var first evaluation
	var passTimes []float64
	byFigure := make([][]float64, len(figures))
	var heap heapSample
	startPeakRSS()
	h0 := readHeap()
	steal0 := stealTicks()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < p.duration(); pass++ {
		ev, err := evaluate(p.seed, models)
		if err != nil {
			return out, err
		}
		passTime := 0.0
		for i, d := range ev.seconds {
			byFigure[i] = append(byFigure[i], d)
			passTime += d
		}
		passTimes = append(passTimes, passTime)
		out.tally(ev.cells, ev.failed, ev.first)
		if pass == 0 {
			first = ev
		} else if fmt.Sprint(ev.quality) != fmt.Sprint(first.quality) || ev.simEDP != first.simEDP {
			out.tally(0, 1, fmt.Errorf("pass %d: figures differ from pass 0", pass))
		}
	}
	elapsed := time.Since(start)
	heap = readHeap().sub(h0)
	passes := float64(len(passTimes))
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.e2e["throughput_ops"] = 1 / median(passTimes)
	out.e2e["latency_p50_us"] = kindPercentile(byFigure, 0.5) * 1e6
	out.e2e["latency_p90_us"] = kindPercentile(byFigure, 0.9) * 1e6
	out.e2e["allocs_per_op"] = float64(heap.allocs) / passes
	out.e2e["sim_edp_per_op"] = first.simEDP
	for k, v := range first.quality {
		out.e2e[k] = v
	}
	out.layers["go.bytes_per_op"] = float64(heap.bytes) / passes
	out.layers["go.gc_cycles_per_kop"] = 1000 * float64(heap.gcs) / passes
	out.notef("paper-eval: %d passes of Figs. 9-12, %.2fs, host steal %.1f%%",
		len(passTimes), elapsed.Seconds(), stealPct(steal0, elapsed))
	if !p.trace {
		return out, nil
	}

	// Traced pass: every cell of the four figures run serially through
	// its sched.Strategy, one span per Strategy.Run.
	rec := p.newRecorder(0)
	tstart := time.Now()
	serial, err := serialCells(rec, p.seed, models)
	if err != nil {
		return out, err
	}
	// The spans wrap whole cells, so the traced pass's wall time beyond
	// the cells' own time is the tracing overhead.
	out.layers["trace.overhead_pct"] = 100 * (time.Since(tstart).Seconds()/serial.Seconds() - 1)
	totals := newLayerTotals()
	totals.add(setupRec.spansOrNil())
	totals.add(rec.spans)
	out.recs = append(out.recs, setupRec, rec)
	out.fromTotals(totals)
	names := map[string]string{"oracle": "sched.oracle_s", "eas": "sched.eas_s", "perf": "sched.perf_s", "fixed": "sched.fixed_s"}
	for kind, metric := range names {
		out.layers[metric] = float64(totals.selfNS[spanSchedPrefix+kind]) / 1e9
	}
	// par.speedup: the serial cell sum over the parallel Evaluate wall
	// of the same figures.
	out.layers["par.speedup"] = serial.Seconds() / median(passTimes)
	return out, nil
}

// serialCells runs the cells of Figs. 9-12 one by one, each inside a
// span named after its strategy kind, and returns their summed time.
func serialCells(rec *recorder, seed int64, models map[string]*powerchar.Model) (time.Duration, error) {
	easOpts := core.Options{GrowProfileChunk: true, ConvergeTol: 0.08}
	strategies := []struct {
		kind string
		s    sched.Strategy
	}{
		{"oracle", sched.Oracle(0.1)},
		{"fixed", sched.CPUOnly()},
		{"fixed", sched.GPUOnly()},
		{"perf", sched.Perf(easOpts)},
		{"eas", sched.EAS(easOpts)},
	}
	var total time.Duration
	ctx := context.Background()
	for _, f := range figures {
		spec, _ := platform.Presets(f.platform)
		metric, err := metrics.ByName(f.metric)
		if err != nil {
			return 0, err
		}
		for _, w := range workloads.ForPlatform(f.platform) {
			for _, st := range strategies {
				h := rec.begin(spanSchedPrefix+st.kind, -1, -1)
				start := time.Now()
				res, err := st.s.Run(ctx, w, spec, models[f.platform], metric, seed)
				total += time.Since(start)
				rec.end(h)
				if err != nil {
					return 0, fmt.Errorf("%s on %s: %w", st.s.Name(), w.Abbrev, err)
				}
				if !finitePositive(res.Value) || math.IsNaN(res.EnergyJ) {
					return 0, fmt.Errorf("%s on %s: value %v", st.s.Name(), w.Abbrev, res.Value)
				}
			}
		}
	}
	return total, nil
}
