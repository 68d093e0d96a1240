package obs

import (
	"io"
	"testing"
	"time"
)

// serveDecideSpans builds n spans shaped like a decision-path run with
// an Observer attached: per invocation a root, an admission wait, a
// profile, an α search carrying an 11-point Explain, and an execute,
// each with the attrs the scheduler puts on them.
func serveDecideSpans(n int) []Span {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	spans := make([]Span, 0, n)
	var id uint64
	for inv := uint64(1); len(spans) < n; inv++ {
		t0 := base.Add(time.Duration(inv) * 37 * time.Microsecond)
		at := func(ns int) time.Time { return t0.Add(time.Duration(ns) * 1013) }
		id++
		root := id
		grid := make([]GridPoint, 11)
		for i := range grid {
			a := float64(i) / 10
			grid[i] = GridPoint{Alpha: a, Objective: 0.0123 + 0.004*(a-0.6)*(a-0.6)}
		}
		tree := []Span{
			{Name: "admission-wait", Start: at(1), End: at(2),
				Attrs: []Attr{Str("class", "interactive")}},
			{Name: "profile", Start: at(2), End: at(9),
				Attrs: []Attr{Num("steps", 2), Num("rc", 1.8372e9), Num("rg", 4.1193e9)}},
			{Name: "alpha-search", Start: at(9), End: at(10), Explain: &Explain{
				RC: 1.8372e9, RG: 4.1193e9, Category: "comp-cpuL-gpuL",
				CurveID: "comp-cpuL-gpuL~deg6(r2=0.997)", AlphaStep: 0.1,
				Grid: grid, Alpha: 0.6, Objective: 0.0123,
			}},
			{Name: "execute", Start: at(10), End: at(15),
				Attrs: []Attr{Num("gpu_items", 611942.4), Num("cpu_items", 407961.6)}},
			{Name: "invocation", Start: at(0), End: at(16),
				Attrs: []Attr{Num("alpha", 0.6), Num("energy_j", 0.01871), Num("duration_us", 15)}},
		}
		for i := range tree {
			sp := tree[i]
			sp.Invocation, sp.Kernel = inv, "MM"
			if sp.Name == "invocation" {
				sp.ID = root
			} else {
				id++
				sp.ID, sp.Parent = id, root
			}
			if len(spans) < n {
				spans = append(spans, sp)
			}
		}
	}
	return spans
}

// BenchmarkChromeTraceExport renders a full default ring of
// decision-path spans, snapshot included, as Observer.WriteChromeTrace
// and /debug/trace do. ci/check-obs-overhead.sh gates its allocs/op,
// which must not grow with the number of spans.
func BenchmarkChromeTraceExport(b *testing.B) {
	ring := NewRingSink(0)
	for _, sp := range serveDecideSpans(DefaultRingCapacity) {
		ring.Emit(sp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, ring.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}
