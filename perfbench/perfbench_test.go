package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hetsched/eas"
)

// runCommand runs the command in-process and decodes its last line.
func runCommand(t *testing.T, args ...string) (jsonResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result (exit %d): %v\nstdout:\n%s\nstderr:\n%s",
			args, code, err, stdout.String(), stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: exit %d, result %+v\n%s%s", args, code, res, stdout.String(), stderr.String())
	}
	return res, stdout.String()
}

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced, and checks that each prints every metric it must with its
// unit.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w, "-tiny", "-seconds", "0", "-trace", trace}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
				args = append(args, "-trace-out", dir+"/"+w+".json")
			}
			res, out := runCommand(t, args...)
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
				if !strings.Contains(out, m.name) {
					t.Errorf("%s trace=%s: human-readable output lacks %s", w, trace, m.name)
				}
			}
			if trace == "1" {
				var doc struct{ TraceEvents []map[string]any }
				b, err := os.ReadFile(dir + "/" + w + ".json")
				if err == nil {
					err = json.Unmarshal(b, &doc)
				}
				if err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: span file unreadable or empty: %v", w, err)
				}
			}
		}
	}
}

// deterministic lists the metrics that must repeat exactly between two
// fixed-work runs of the same seed.
var deterministic = []string{
	"sim_edp_per_op", "oracle_pct.desktop_edp", "oracle_pct.desktop_energy",
	"oracle_pct.tablet_edp", "oracle_pct.tablet_energy",
	"table.profiled_pct", "table.small_n_pct", "profile.steps_per_op",
}

// appsTolerance is how far the decision figures of two apps runs may
// differ. CC's label propagation and SP's relaxation converge in a
// number of rounds that depends on thread interleaving, and the
// simulated platform carries each run's energy state forward, so apps
// repeats only to about 0.1%.
const appsTolerance = 0.01

// TestFixedWorkRepeats checks that two runs give identical decision
// figures: fixed passes of a seeded schedule, with the deterministic
// figures taken from a single-caller pass.
func TestFixedWorkRepeats(t *testing.T) {
	for _, w := range workloadNames {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			p := params{workload: w, seed: 7, tiny: true, epoch: time.Now()}
			out, err := measure(p)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			vals := map[string]float64{}
			for _, name := range deterministic {
				v, ok := out.e2e[name]
				if !ok {
					v, ok = out.layers[name]
				}
				if ok {
					vals[name] = v
				}
			}
			if first == nil {
				first = vals
				continue
			}
			for name, v := range vals {
				same := first[name] == v
				if w == "apps" {
					same = math.Abs(first[name]-v) <= appsTolerance*math.Abs(first[name])
				}
				if !same {
					t.Errorf("%s: %s = %v then %v", w, name, first[name], v)
				}
			}
		}
	}
}

// TestSelfTimes checks self-time accounting on a synthetic span tree
// with nested, overlapping and out-of-interval children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},   // covered 10..40
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a: union 10..60
		{Name: "c", Parent: 1, Start: 15, End: 25},   // child of a
		{Name: "d", Parent: 0, Start: 90, End: 130},  // clipped to 90..100
		{Name: "e", Parent: 0, Start: 200, End: 250}, // outside the parent
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 40, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestAttributionAddsUp checks, on a traced tiny run, that the layer
// self times replayed for each request plus eas.unattributed_ns equal
// eas.invoke_ns.
func TestAttributionAddsUp(t *testing.T) {
	for _, w := range []string{"serve-decide", "apps"} {
		out, err := runners[w](params{workload: w, seed: 3, tiny: true, trace: true, epoch: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		totals := newLayerTotals()
		for _, r := range out.recs {
			totals.add(r.spansOrNil())
		}
		if totals.invokes == 0 {
			t.Fatalf("%s: no eas.invoke spans", w)
		}
		sum := totals.unattributedNS
		for _, v := range totals.attributedNS {
			sum += v
		}
		if sum != totals.invokeNS {
			t.Errorf("%s: unattributed %d + layers %d != invoke %d", w, totals.unattributedNS, sum-totals.unattributedNS, totals.invokeNS)
		}
		inv, unattr := out.layers["eas.invoke_ns"], out.layers["eas.unattributed_ns"]
		if !(unattr < inv) {
			t.Errorf("%s: eas.unattributed_ns %v not below eas.invoke_ns %v", w, unattr, inv)
		}
	}
}

// TestGeneratorAllocations checks the load generator's hygiene: per
// request it allocates only the request goroutine's start and its reply
// channel.
func TestGeneratorAllocations(t *testing.T) {
	tr, err := buildTraffic(1, true)
	if err != nil {
		t.Fatal(err)
	}
	ns, allocs := dryRun(tr)
	if allocs > 2 || ns <= 0 {
		t.Errorf("generator: %.2f allocs and %.0f ns per request, want at most 2 allocs", allocs, ns)
	}
}

// TestCheckReport checks that each serve correctness check rejects
// what it should.
func TestCheckReport(t *testing.T) {
	good := eas.Report{Alpha: 0.5, CPUItems: 50, GPUItems: 50, EnergyJ: 2, MetricValue: 1, CPUEnergyJ: 1, GPUEnergyJ: 0.5}
	if err := checkReport(&good, 100); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := map[string]func(r *eas.Report){
		"alpha":        func(r *eas.Report) { r.Alpha = 1.5 },
		"items":        func(r *eas.Report) { r.GPUItems = 10 },
		"energy":       func(r *eas.Report) { r.EnergyJ = 0 },
		"metric":       func(r *eas.Report) { r.MetricValue = -1 },
		"domain split": func(r *eas.Report) { r.DRAMEnergyJ = 1 },
	}
	for name, mutate := range bad {
		r := good
		mutate(&r)
		if checkReport(&r, 100) == nil {
			t.Errorf("%s: bad report accepted", name)
		}
	}
	if (func() bool { res, _ := result(&outcome{attempted: 3, failed: 1}, nil, nil); return res.Correct })() {
		t.Error("a run with a failed check reads correct")
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json in step with the
// metrics and workloads this program reports.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("workloads %v, want %v", doc.Workloads, workloadNames)
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %+v, want %s with a reason", i, w, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, m)
			}
			if bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.name, *g.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
