package report

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/sched"
)

// pinSeeds are the workload-schedule seeds the full-precision pin
// covers: the default plus two more, so a drift that happens to cancel
// out on one schedule still shows.
var pinSeeds = []int64{DefaultSeed, 3, 29}

func appendFloat(b []byte, v float64) []byte {
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, ' ')
}

func appendResult(b []byte, r sched.Result) []byte {
	b = append(b, r.Strategy+" "+r.Workload+" "+r.Platform+" "...)
	b = strconv.AppendInt(b, int64(r.Duration), 10)
	b = append(b, ' ')
	b = appendFloat(b, r.EnergyJ)
	b = appendFloat(b, r.Value)
	b = appendFloat(b, r.GPUShare)
	b = appendFloat(b, r.OracleAlpha)
	b = strconv.AppendInt(b, int64(r.Invocations), 10)
	return append(b, '\n')
}

// figureDigest hashes every field of every Oracle and cell Result of a
// figure, floats in shortest round-trip form.
func figureDigest(f *EfficiencyFigure) string {
	var b []byte
	for _, w := range f.Workloads {
		b = appendResult(b, f.Oracle[w])
		for _, s := range f.Strategies {
			c := f.Cells[w][s]
			b = appendResult(b, c.Result)
			b = appendFloat(b, c.EfficiencyPct)
			b = append(b, '\n')
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// modelDigest hashes a characterized model's fitted coefficients and
// the samples they were fitted to.
func modelDigest(m *powerchar.Model) string {
	var b []byte
	b = appendFloat(b, m.AlphaStep)
	for _, k := range SortedCurveKeys(m) {
		c := m.Curves[k]
		b = append(b, k+"\n"...)
		for _, v := range c.Coeffs {
			b = appendFloat(b, v)
		}
		for _, s := range c.Samples {
			b = appendFloat(b, s.Alpha)
			b = appendFloat(b, s.Watts)
			b = appendFloat(b, s.Seconds)
		}
		b = append(b, '\n')
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestEvaluationFullPrecision pins Figs. 9-12 at full float precision
// over several seeds, plus both characterized models. The rendered
// golden prints one decimal and cannot see a last-bit drift; this can.
// A diff means some result changed; rerun with
// `go test ./internal/report -run FullPrecision -update` only after an
// intentional model change, and say which digests moved and why.
func TestEvaluationFullPrecision(t *testing.T) {
	var lines []string
	for _, name := range []string{"desktop", "tablet"} {
		spec, _ := platform.Presets(name)
		m, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("model %s %s", name, modelDigest(m)))
	}
	for _, seed := range pinSeeds {
		for _, exp := range []struct{ p, m string }{
			{"desktop", "edp"}, {"desktop", "energy"},
			{"tablet", "edp"}, {"tablet", "energy"},
		} {
			fig := figuresAt(t, seed)[figureID(exp.p, exp.m)]
			lines = append(lines, fmt.Sprintf("seed %d %s/%s %s", seed, exp.p, exp.m, figureDigest(fig)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "fullprecision.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("digest changed:\n got: %s\nwant: %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("pin has %d lines, want %d", len(gl), len(wl))
		}
	}
}
