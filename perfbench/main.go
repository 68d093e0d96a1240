// Command perfbench is the repository's benchmark. It runs one of four
// fixed-work workloads through the public eas API (serve-replay,
// serve-decide, apps) or the paper's evaluation pipeline (paper-eval),
// checks every result, and prints its metrics. With -trace 0 it prints
// the end-to-end metrics; with -trace 1 it also records a span around
// every call the benchmark makes into a layer and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.py from the repository root, or directly:
//
//	cd perfbench && go run . -workload serve-replay -seconds 10 -trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/hetsched/eas/internal/report"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives.
var workloadNames = []string{"serve-replay", "serve-decide", "apps", "paper-eval"}

// runners maps a workload name to its implementation.
var runners = map[string]func(params) (*outcome, error){
	"serve-replay": func(p params) (*outcome, error) { return runServe(p, false) },
	"serve-decide": func(p params) (*outcome, error) { return runServe(p, true) },
	"apps":         runApps,
	"paper-eval":   runPaperEval,
}

// calibrationOrder is where a workload's traced run takes the figures
// of a layer group it does not exercise itself: from a tiny traced run
// of the first workload in this list that does.
var calibrationOrder = []string{"serve-decide", "apps", "paper-eval", "serve-replay"}

// params is one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	tiny     bool
	trace    bool
	epoch    time.Time
}

func (p params) duration() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// setupReps is how many timed set-up repetitions the median is taken
// over.
func (p params) setupReps() int {
	if p.tiny {
		return 1
	}
	return 15
}

// tracedPasses is the fixed number of whole passes a traced run
// records.
func (p params) tracedPasses() int {
	if p.tiny {
		return 1
	}
	return 2
}

// newRecorder returns a span recorder when the run is traced, else nil.
func (p params) newRecorder(tid int) *recorder {
	if !p.trace {
		return nil
	}
	return newRecorder(p.epoch, tid)
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	e2e, layers       map[string]float64
	groups            map[string]bool // layer groups measured by this run
	recs              []*recorder
	notes             []string
	// mismatches counts replayed α searches that did not reproduce the
	// runtime's α (reported, not failed: the replay is the benchmark's).
	mismatches int
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		groups: map[string]bool{groupAll: true},
	}
}

func (o *outcome) owns(groups ...string) {
	for _, g := range groups {
		o.groups[g] = true
	}
}

// tally counts checked operations and failures, keeping the first
// failure for the report.
func (o *outcome) tally(checked, failed int, first error) {
	o.attempted += checked
	o.failed += failed
	if o.firstErr == nil && first != nil {
		o.firstErr = first
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fromTotals sets the per-call layer metrics for every layer the spans
// recorded.
func (o *outcome) fromTotals(t *layerTotals) {
	perCallNS := map[string]string{
		"admission.acquire_ns":        spanAcquire,
		"admission.tiered_acquire_ns": spanTieredAcquire,
		"profile.step_ns":             spanProfileStep,
		"wclass.classify_ns":          spanClassify,
		"alpha.search_ns":             spanAlphaSearch,
		"engine.run_ns":               spanEngineRun,
		"robust.measure_ns":           spanRobustMeasure,
		"ws.parallel_for_ns":          spanWSParallelFor,
		"cl.dispatch_ns":              spanCLDispatch,
	}
	for metric, name := range perCallNS {
		if v, ok := t.perCall(name); ok {
			o.layers[metric] = v
		}
	}
	if v, ok := t.perCall(spanCharacterize); ok {
		o.layers["powerchar.characterize_ms"] = v / 1e6
	}
	if v, ok := t.perCall(spanObsExport); ok {
		o.layers["obs.export_ms"] = v / 1e6
	}
	if t.invokes > 0 {
		o.layers["eas.invoke_ns"] = float64(t.invokeNS) / float64(t.invokes)
		o.layers["eas.unattributed_ns"] = float64(t.unattributedNS) / float64(t.invokes)
	}
}

// spansOrNil returns the recorder's spans; nil for a nil recorder.
func (r *recorder) spansOrNil() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// measure runs the workload, and in a traced run completes the
// per-layer metrics from calibration runs for the layer groups the
// workload does not exercise.
func measure(p params) (*outcome, error) {
	run, ok := runners[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", p.workload, workloadNames)
	}
	out, err := run(p)
	if err != nil || !p.trace {
		return out, err
	}
	for _, cal := range calibrationOrder {
		if cal == p.workload {
			continue
		}
		missing := false
		for _, m := range perLayer {
			if _, ok := out.layers[m.name]; !ok && !out.groups[m.group] {
				missing = true
			}
		}
		if !missing {
			break
		}
		cp := p
		cp.workload, cp.tiny, cp.seconds = cal, true, 0
		calOut, err := runners[cal](cp)
		if err != nil {
			return out, fmt.Errorf("calibration run %s: %w", cal, err)
		}
		out.tally(calOut.attempted, calOut.failed, calOut.firstErr)
		for _, m := range perLayer {
			if out.groups[m.group] || !calOut.groups[m.group] {
				continue
			}
			if _, ok := out.layers[m.name]; ok {
				continue
			}
			if v, ok := calOut.layers[m.name]; ok {
				out.layers[m.name] = v
			}
		}
		out.recs = append(out.recs, calOut.recs...)
		out.notef("calibration: %s (tiny) for the layer groups %s does not exercise", cal, p.workload)
	}
	return out, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result assembles the final JSON object from the metrics the run must
// report.
func result(out *outcome, specs []metricSpec, values map[string]float64) (jsonResult, error) {
	res := jsonResult{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s missing or not finite (%v)", m.name, v)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "serve-replay", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", report.DefaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed part runs, in whole passes")
	trace := fs.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run writes its spans to (Chrome trace-event JSON)")
	tiny := fs.Bool("tiny", false, "tiny inputs and one pass, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, tiny: *tiny, trace: *trace == 1, epoch: time.Now()}
	out, err := measure(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	if out.attempted > 0 {
		out.e2e["passed_pct"] = 100 * float64(out.attempted-out.failed) / float64(out.attempted)
	}
	specs, values := endToEnd, out.e2e
	if p.trace {
		specs, values = perLayer, out.layers
	}
	res, err := result(out, specs, values)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d tiny=%v\n", p.workload, p.seed, p.seconds, *trace, p.tiny)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	if out.mismatches > 0 {
		fmt.Fprintf(stdout, "  replay: %d α searches did not reproduce the runtime's α\n", out.mismatches)
	}
	names := make([]string, 0, len(specs))
	for _, m := range specs {
		names = append(names, m.name)
	}
	if !p.trace {
		// failed_pct is the complement of passed_pct; it is printed here
		// and not in the JSON, where every metric must be non-zero.
		fmt.Fprintf(stdout, "  %-30s %14.6g %%\n", "failed_pct", 100*float64(out.failed)/float64(max(out.attempted, 1)))
	} else {
		sort.Strings(names)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if out.firstErr != nil {
		fmt.Fprintf(stdout, "  first failure: %v\n", out.firstErr)
	}
	if p.trace && *traceOut != "" {
		if err := writeTraceFile(*traceOut, out.recs); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  spans written to %s\n", *traceOut)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTraceFile writes the run's spans once the run has ended.
func writeTraceFile(path string, recs []*recorder) error {
	var kept []*recorder
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, kept); err != nil {
		f.Close()
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
