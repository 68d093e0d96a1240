package core

import (
	"fmt"
	"testing"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/wclass"
)

// TestExplainCurveID pins the decision audit's curve id, which the
// scheduler formats once per curve at construction, to the
// "<category>~deg<degree>(r2=<fit>)" form of the curve the search ran
// against.
func TestExplainCurveID(t *testing.T) {
	ring := obs.NewRingSink(0)
	s := newEAS(t, metrics.EDP, Options{Observer: obs.New(ring, nil), ReprofileEvery: 1})
	for _, k := range []engine.Kernel{memKernel(), compKernel()} {
		for _, n := range []int{200000, 5000000} {
			if _, err := s.ParallelFor(k, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := 0
	for _, sp := range ring.Snapshot() {
		ex := sp.Explain
		if ex == nil {
			continue
		}
		seen++
		cat, err := wclass.ParseKey(ex.Category)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := s.model.Curve(cat)
		if !ok {
			t.Fatalf("no curve for %s", ex.Category)
		}
		want := fmt.Sprintf("%s~deg%d(r2=%.3f)", c.Category.Key(), len(c.Coeffs)-1, c.R2)
		if ex.CurveID != want {
			t.Errorf("CurveID = %q, want %q", ex.CurveID, want)
		}
	}
	if seen == 0 {
		t.Fatal("no α-search span carried an Explain")
	}
}
