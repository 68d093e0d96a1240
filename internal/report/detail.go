package report

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/svgchart"
	"github.com/hetsched/eas/internal/trace"
	"github.com/hetsched/eas/internal/workloads"
)

// SweepPoint is one fixed-α measurement of a workload.
type SweepPoint struct {
	Alpha       float64
	Seconds     float64
	EnergyJ     float64
	MetricValue float64
}

// InvocationDetail records one EAS scheduling decision.
type InvocationDetail struct {
	Index    int
	N        int
	Alpha    float64
	Profiled bool
	Category string
	Duration time.Duration
	EnergyJ  float64
}

// Detail is a complete per-workload analysis: the fixed-α landscape,
// every strategy's totals, EAS's per-invocation decisions, and the
// energy breakdown of the Oracle-optimal run.
type Detail struct {
	Workload, Platform, Metric string
	Sweep                      []SweepPoint
	Strategies                 []sched.Result
	Oracle                     sched.Result
	Invocations                []InvocationDetail
	// InvocationsTotal is the full count (Invocations may be truncated
	// for display).
	InvocationsTotal int
	Breakdown        trace.EnergyBreakdown
}

// maxDetailInvocations bounds the per-invocation listing.
const maxDetailInvocations = 40

// WorkloadDetail runs the full analysis for one workload.
func WorkloadDetail(abbrev, platformName, metricName string, seed int64) (*Detail, error) {
	if seed == 0 {
		seed = DefaultSeed
	}
	w, ok := workloads.ByAbbrev(abbrev)
	if !ok {
		return nil, fmt.Errorf("report: unknown workload %q", abbrev)
	}
	spec, ok := platform.Presets(platformName)
	if !ok {
		return nil, fmt.Errorf("report: unknown platform %q", platformName)
	}
	metric, err := metrics.ByName(metricName)
	if err != nil {
		return nil, err
	}
	model, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
	if err != nil {
		return nil, err
	}
	d := &Detail{Workload: abbrev, Platform: platformName, Metric: metricName}

	// Fixed-α landscape.
	for _, a := range sched.AlphaGrid(0.1) {
		res, err := sched.FixedAlpha(a).Run(context.Background(), w, spec, nil, metric, seed)
		if err != nil {
			return nil, err
		}
		d.Sweep = append(d.Sweep, SweepPoint{
			Alpha:       a,
			Seconds:     res.Duration.Seconds(),
			EnergyJ:     res.EnergyJ,
			MetricValue: res.Value,
		})
	}

	// Strategy totals.
	opts := core.Options{GrowProfileChunk: true, ConvergeTol: 0.08}
	for _, s := range []sched.Strategy{
		sched.CPUOnly(), sched.GPUOnly(), sched.Perf(opts), sched.EAS(opts), sched.Oracle(0.1),
	} {
		res, err := s.Run(context.Background(), w, spec, model, metric, seed)
		if err != nil {
			return nil, err
		}
		if s.Name() == "Oracle" {
			d.Oracle = res
		} else {
			d.Strategies = append(d.Strategies, res)
		}
	}

	// EAS per-invocation decisions.
	invs, err := w.Schedule(spec.Name, seed)
	if err != nil {
		return nil, err
	}
	p, err := platform.New(spec)
	if err != nil {
		return nil, err
	}
	eng := engine.New(p)
	s, err := core.New(eng, model, metric, opts)
	if err != nil {
		return nil, err
	}
	d.InvocationsTotal = len(invs)
	for i, inv := range invs {
		rep, err := s.ParallelFor(inv.Kernel, inv.N)
		if err != nil {
			return nil, err
		}
		if i < maxDetailInvocations {
			id := InvocationDetail{
				Index: i, N: inv.N, Alpha: rep.Alpha,
				Profiled: rep.Profiled,
				Duration: rep.Duration, EnergyJ: rep.EnergyJ,
			}
			if rep.Profiled {
				id.Category = rep.Category.Key()
			}
			d.Invocations = append(d.Invocations, id)
		}
		eng.RunIdle(sched.InterInvocationGap, nil)
	}

	// Energy breakdown of the Oracle-optimal fixed split.
	_, tr, err := sched.RunFixedTraced(w, spec, d.Oracle.OracleAlpha, seed)
	if err != nil {
		return nil, err
	}
	d.Breakdown = tr.Breakdown()
	return d, nil
}

// SweepSVG renders the fixed-α landscape as a chart: time and energy
// vs GPU offload percentage, each normalized to α=0.
func (d *Detail) SweepSVG() (string, error) {
	if len(d.Sweep) == 0 {
		return "", fmt.Errorf("report: detail has no sweep data")
	}
	t0, e0 := d.Sweep[0].Seconds, d.Sweep[0].EnergyJ
	times := svgchart.Series{Name: "runtime (rel.)"}
	energy := svgchart.Series{Name: "energy (rel.)"}
	for _, p := range d.Sweep {
		times.X = append(times.X, p.Alpha*100)
		times.Y = append(times.Y, p.Seconds/t0)
		energy.X = append(energy.X, p.Alpha*100)
		energy.Y = append(energy.Y, p.EnergyJ/e0)
	}
	chart := &svgchart.LineChart{
		Title:  fmt.Sprintf("%s on %s: runtime & energy vs GPU offload", d.Workload, d.Platform),
		XLabel: "% of work on GPU",
		YLabel: "relative to CPU-only",
		Series: []svgchart.Series{energy, times},
	}
	return chart.Render()
}

// Render writes the detail report.
func (d *Detail) Render(w io.Writer) {
	fmt.Fprintf(w, "Workload detail: %s on %s, metric %s\n\n", d.Workload, d.Platform, d.Metric)
	fmt.Fprintf(w, "fixed-α landscape:\n%8s %12s %12s %14s\n", "GPU %", "time (s)", "energy (J)", d.Metric)
	for _, p := range d.Sweep {
		fmt.Fprintf(w, "%7.0f%% %12.3f %12.2f %14.5g\n", p.Alpha*100, p.Seconds, p.EnergyJ, p.MetricValue)
	}
	fmt.Fprintf(w, "\nstrategies (Oracle α = %.1f, value %.5g):\n", d.Oracle.OracleAlpha, d.Oracle.Value)
	for _, s := range d.Strategies {
		fmt.Fprintf(w, "  %-6s %10v %10.2f J  %s=%.5g  (%.1f%% of Oracle)  gpuShare=%.2f\n",
			s.Strategy, s.Duration.Round(time.Millisecond), s.EnergyJ, d.Metric, s.Value,
			metrics.Efficiency(d.Oracle.Value, s.Value), s.GPUShare)
	}
	fmt.Fprintf(w, "\nEAS decisions (%d of %d invocations shown):\n", len(d.Invocations), d.InvocationsTotal)
	for _, inv := range d.Invocations {
		marker := " "
		if inv.Profiled {
			marker = "P"
		}
		fmt.Fprintf(w, "  #%-4d N=%-9d α=%.2f %s %-14s %10v %9.3f J\n",
			inv.Index, inv.N, inv.Alpha, marker, inv.Category,
			inv.Duration.Round(time.Microsecond), inv.EnergyJ)
	}
	b := d.Breakdown
	if b.TotalJ > 0 {
		fmt.Fprintf(w, "\nenergy breakdown at the Oracle split (α=%.1f):\n", d.Oracle.OracleAlpha)
		fmt.Fprintf(w, "  CPU cores %5.1f%%   GPU %5.1f%%   memory %5.1f%%   idle/uncore %5.1f%%\n",
			100*b.CPUJ/b.TotalJ, 100*b.GPUJ/b.TotalJ, 100*b.DRAMJ/b.TotalJ, 100*b.IdleJ/b.TotalJ)
	}
}
