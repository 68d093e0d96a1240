package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// checkSameAsRef fails the test unless WriteChromeTrace and the
// reference encoder produce the same bytes for spans.
func checkSameAsRef(t *testing.T, spans []Span) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got, spans); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceRef(&want, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("output differs from the reference encoder:\ngot:  %q\nwant: %q", got.String(), want.String())
	}
}

// TestChromeTraceMatchesReference pins the append-based encoder to the
// bytes of the map-and-reflection encoder it replaced on the inputs
// where the two could drift: map-key overrides, escaping, float
// formatting, grid shapes, instants and span order.
func TestChromeTraceMatchesReference(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	ex := func(grid []GridPoint) *Explain {
		return &Explain{
			RC: 1e6, RG: 2.5e6, Category: "mem-cpuS-gpuL", CurveID: "mem-cpuS-gpuL~deg6(r2=0.998)",
			AlphaStep: 0.1, Grid: grid, Alpha: 0.3, Objective: 1.25, Refined: true,
		}
	}
	cases := []struct {
		name  string
		spans []Span
	}{
		{"empty", nil},
		{"plain", fixedSpans()},
		{"attrs override identity keys", []Span{{
			ID: 4, Parent: 2, Invocation: 3, Name: "x", Kernel: "k",
			Start: at(0), End: at(5),
			Attrs: []Attr{
				Str("kernel", "other"), Num("span", 9.5), Str("parent", "p"),
				Num("invocation", -1), Str("a", "1"), Str("a", "2"), Num("zz", 1),
			},
		}}},
		{"identity keys without kernel or parent", []Span{{
			ID: 1, Invocation: 1, Name: "root", Start: at(0), End: at(1),
			Attrs: []Attr{Str("kernel", "from-attr"), Num("parent", 0)},
		}}},
		{"explain overrides attr", []Span{{
			ID: 2, Parent: 1, Invocation: 1, Name: "alpha-search", Kernel: "k",
			Start: at(1), End: at(2),
			Attrs:   []Attr{Str("explain", "shadowed"), Num("alpha", 0.5)},
			Explain: ex([]GridPoint{{0, 2}, {0.5, 1}, {1, math.Inf(1)}}),
		}}},
		{"attr named explain without explain", []Span{{
			ID: 2, Invocation: 1, Name: "s", Start: at(1), End: at(2),
			Attrs: []Attr{Str("explain", "kept")},
		}}},
		{"escaping", []Span{{
			ID: 1, Invocation: 1, Name: "<a>&\"b\"\\c\x00\x01\x08\x0c\n\r\t\x1f\x7f",
			Kernel: "k\u2028\u2029é日本\xff\xfe", Start: at(0), End: at(1),
			Attrs: []Attr{
				Str("<key>", "&amp;"), Str("ключ\xc3", "\xed\xa0\x80"), Str("", ""),
				Num("\u2028", 1), Str("tab\tkey", "a\u00e9\U0001F600"),
			},
			Explain: &Explain{Category: "cat<\x01>\u2029", CurveID: "c&\xc0~deg1", Grid: []GridPoint{}},
		}}},
		{"floats", []Span{{
			ID: 1, Invocation: 1, Name: "f", Start: at(0), End: at(1),
			Attrs: []Attr{
				Num("inf", math.Inf(1)), Num("ninf", math.Inf(-1)), Num("nan", math.NaN()),
				Num("negzero", math.Copysign(0, -1)), Num("tiny", 1e-7), Num("edge", 1e-6),
				Num("big", 1e21), Num("below", 999999999999999999999), Num("sub", 5e-324),
				Num("neg", -1.5e-9), Num("max", math.MaxFloat64), Num("third", 1.0/3),
			},
			Explain: &Explain{
				RC: math.NaN(), RG: math.Inf(-1), AlphaStep: 1e-7, Alpha: math.Copysign(0, -1),
				Objective: 5e-324, Grid: []GridPoint{{1e21, -1e-300}, {math.NaN(), math.Inf(-1)}},
			},
		}}},
		{"nil grid", []Span{{ID: 1, Invocation: 1, Name: "g", Start: at(0), End: at(1), Explain: ex(nil)}}},
		{"empty grid", []Span{{ID: 1, Invocation: 1, Name: "g", Start: at(0), End: at(1), Explain: ex([]GridPoint{})}}},
		{"instants and out-of-order starts", []Span{
			{ID: 3, Parent: 1, Invocation: 1, Kind: KindInstant, Name: "gpu-retry", Kernel: "k", Start: at(700), End: at(700)},
			{ID: 1, Invocation: 1, Name: "invocation", Kernel: "k", Start: at(250), End: at(900)},
			{ID: 2, Parent: 1, Invocation: 1, Name: "profile", Start: at(-3), End: at(-1)},
			{ID: 5, Invocation: 2, Kind: KindInstant, Name: "shed", Start: at(5), End: at(4)},
			{ID: 6, Invocation: 2, Name: "backwards", Start: at(40), End: at(10)},
			{ID: 7, Invocation: math.MaxUint64, Name: "max-ids", Start: at(1), End: at(1)},
		}},
		{"zero start times", []Span{
			{ID: 1, Invocation: 1, Name: "a", Start: at(3), End: at(4)},
			{ID: 2, Invocation: 1, Name: "zero"},
			{ID: 3, Invocation: 1, Name: "b", Start: at(1), End: at(2)},
		}},
		{"more attrs than the stack array", []Span{{
			ID: 1, Invocation: 1, Name: "many", Start: at(0), End: at(1),
			Attrs: func() []Attr {
				var attrs []Attr
				for i := 0; i < 3*maxStackArgs; i++ {
					attrs = append(attrs, Num(string(rune('z'-i%26))+string(rune('a'+i)), float64(i)))
				}
				return attrs
			}(),
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSameAsRef(t, tc.spans) })
	}
}

// TestChromeTraceMatchesReferenceAcrossChunks checks a trace longer
// than one flush chunk.
func TestChromeTraceMatchesReferenceAcrossChunks(t *testing.T) {
	spans := serveDecideSpans(2000)
	checkSameAsRef(t, spans)
}

// FuzzChromeTrace checks that WriteChromeTrace and the reference
// encoder agree byte for byte on arbitrary names, attrs, decision
// audits and timings.
func FuzzChromeTrace(f *testing.F) {
	f.Add("invocation", "bfs", "alpha", "x", 0.5, "mem-cpuS-gpuL", "mem-cpuS-gpuL~deg6(r2=0.998)", 1e6, uint64(1), int64(250), int64(500), uint8(0))
	f.Add("<é>", "\u2028", "kernel", "\xff", math.Inf(1), "&", "\x00", 1e-7, uint64(0), int64(-3), int64(1), uint8(255))
	f.Add("", "", "explain", "", math.NaN(), "", "", 5e-324, uint64(math.MaxUint64), int64(0), int64(0), uint8(6))
	f.Fuzz(func(t *testing.T, name, kernel, key, str string, num float64, category, curve string, rc float64, id uint64, startUS, durUS int64, flags uint8) {
		base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
		start := base.Add(time.Duration(startUS) * time.Microsecond)
		root := Span{
			ID: id, Invocation: id, Name: name, Kernel: kernel,
			Start: start, End: start.Add(time.Duration(durUS) * time.Nanosecond),
			Attrs: []Attr{Num(key, num), Str(str, key), Str(key, str)},
		}
		child := Span{
			ID: id + 1, Parent: id, Invocation: id, Name: str, Kernel: name,
			Start: base, End: base.Add(time.Duration(durUS)),
			Attrs: []Attr{Str(key, name), Num("alpha", rc)},
		}
		if flags&1 != 0 {
			root.Kind = KindInstant
		}
		if flags&2 != 0 {
			var grid []GridPoint
			if flags&4 != 0 {
				grid = []GridPoint{{num, rc}, {rc, num}, {1, math.Inf(1)}}
			}
			child.Explain = &Explain{
				RC: rc, RG: num, Category: category, CurveID: curve,
				AlphaStep: num, Grid: grid, Alpha: rc, Objective: num,
				Refined: flags&8 != 0,
			}
		}
		checkSameAsRef(t, []Span{root, child})
	})
}
