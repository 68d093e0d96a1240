// Package powerchar implements the paper's one-time platform power
// characterization (§2): each of the eight micro-benchmarks is executed
// across a sweep of GPU offload ratios α ∈ [0,1]; average package power
// is measured through the emulated MSR for every α; and a sixth-order
// polynomial P(α) is fitted per workload category. The resulting model
// is what the energy-aware scheduler combines with online profiling at
// run time.
package powerchar

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/microbench"
	"github.com/hetsched/eas/internal/par"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/vmath"
	"github.com/hetsched/eas/internal/wclass"
)

// Sample is one measured point of a characterization sweep.
type Sample struct {
	// Alpha is the GPU offload ratio.
	Alpha float64 `json:"alpha"`
	// Watts is the measured average package power.
	Watts float64 `json:"watts"`
	// Seconds is the measured execution time (kept for diagnostics).
	Seconds float64 `json:"seconds"`
}

// Curve is one fitted power characterization function.
type Curve struct {
	// Category is the workload class the curve models.
	Category wclass.Category `json:"category"`
	// Coeffs are the fitted polynomial coefficients, ascending degree.
	Coeffs []float64 `json:"coeffs"`
	// Samples are the measured sweep points the fit came from.
	Samples []Sample `json:"samples"`
	// R2 is the fit's coefficient of determination.
	R2 float64 `json:"r2"`
}

// Poly returns the fitted polynomial.
func (c Curve) Poly() vmath.Poly { return vmath.Poly{Coeffs: c.Coeffs} }

// Power evaluates the fitted curve at offload ratio alpha, clamped to
// [0,1]. The Horner loop is inlined here rather than routed through
// Poly.Eval: this is the innermost call of the scheduler's online α
// search, and it must stay allocation-free.
func (c Curve) Power(alpha float64) float64 {
	x := vmath.Clamp(alpha, 0, 1)
	v := 0.0
	for i := len(c.Coeffs) - 1; i >= 0; i-- {
		v = v*x + c.Coeffs[i]
	}
	return v
}

// Model is a platform's complete power characterization: one curve per
// workload category.
type Model struct {
	// Platform is the platform name the model was measured on.
	Platform string `json:"platform"`
	// AlphaStep is the sweep granularity used.
	AlphaStep float64 `json:"alpha_step"`
	// Curves maps category keys (wclass.Category.Key) to curves.
	Curves map[string]Curve `json:"curves"`
}

// Curve returns the characterization curve for a category.
func (m *Model) Curve(cat wclass.Category) (Curve, bool) {
	c, ok := m.Curves[cat.Key()]
	return c, ok
}

// CurveTable returns the model's curves as a dense array indexed by
// wclass.Category.Index, with a parallel presence mask. The scheduler
// resolves this once at construction so hot-path curve lookups become
// an array load instead of a map probe on a built key string.
func (m *Model) CurveTable() (curves [wclass.NumCategories]Curve, ok [wclass.NumCategories]bool) {
	for _, cat := range wclass.All() {
		if c, have := m.Curves[cat.Key()]; have {
			curves[cat.Index()] = c
			ok[cat.Index()] = true
		}
	}
	return curves, ok
}

// Power predicts average package power for a workload of the given
// category at offload ratio alpha. It returns an error for categories
// the model lacks (a malformed or truncated model file).
func (m *Model) Power(cat wclass.Category, alpha float64) (float64, error) {
	c, ok := m.Curves[cat.Key()]
	if !ok {
		return 0, fmt.Errorf("powerchar: model for %s has no curve for category %s", m.Platform, cat)
	}
	return c.Power(alpha), nil
}

// Complete reports whether the model has all eight category curves.
func (m *Model) Complete() bool {
	for _, cat := range wclass.All() {
		if _, ok := m.Curves[cat.Key()]; !ok {
			return false
		}
	}
	return true
}

// Options configure a characterization run.
type Options struct {
	// AlphaStep is the sweep granularity; 0 selects 0.05 (21 points).
	AlphaStep float64
	// PolyDegree is the fitted polynomial degree; 0 selects the
	// paper's sixth order.
	PolyDegree int
	// Workers bounds the measurement fan-out; 0 selects GOMAXPROCS.
	// Every (category, α) point runs on a freshly booted platform, so
	// the pool width changes wall-clock time only, never the model —
	// Workers is therefore excluded from the cache key.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.AlphaStep <= 0 {
		o.AlphaStep = 0.05
	}
	if o.PolyDegree <= 0 {
		o.PolyDegree = 6
	}
	return o
}

func (o Options) validate() error {
	if o.AlphaStep > 0.5 {
		return fmt.Errorf("powerchar: alpha step %v too coarse", o.AlphaStep)
	}
	points := int(1/o.AlphaStep) + 1
	if points < o.PolyDegree+1 {
		return fmt.Errorf("powerchar: %d sweep points cannot fit a degree-%d polynomial", points, o.PolyDegree)
	}
	return nil
}

// Characterize measures and fits the eight power characterization
// functions for a platform. The sweep runs each sized micro-benchmark
// on a freshly booted platform per α point, so measurements are
// independent and deterministic.
func Characterize(spec platform.Spec, opts Options) (*Model, error) {
	return CharacterizeCtx(context.Background(), spec, opts)
}

// CharacterizeCtx is Characterize with cancellation: the measurement
// grid — all eight category sweeps and every α point within them —
// fans out across a worker pool bounded by opts.Workers (default
// GOMAXPROCS), and the first failure (or a cancelled ctx) stops the
// remaining points. Each point boots its own platform, so results are
// written to pre-sized slots and the assembled model is byte-identical
// to a serial run regardless of pool width.
func CharacterizeCtx(ctx context.Context, spec platform.Spec, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	suite, err := microbench.Suite(spec)
	if err != nil {
		return nil, err
	}
	alphas := alphaGrid(opts.AlphaStep)

	// One flat job per (category, α) point; samples land in their own
	// slot so assembly order never depends on completion order.
	samples := make([][]Sample, len(suite))
	for i := range samples {
		samples[i] = make([]Sample, len(alphas))
	}
	npts := len(alphas)
	err = par.ForEach(ctx, len(suite)*npts, opts.Workers, func(_ context.Context, j int) error {
		bi, pi := j/npts, j%npts
		b := suite[bi]
		s, err := MeasureAlpha(spec, b, alphas[pi])
		if err != nil {
			return fmt.Errorf("powerchar: %s on %s: %w", b.Category, spec.Name, err)
		}
		samples[bi][pi] = s
		return nil
	})
	if err != nil {
		return nil, err
	}

	model := &Model{Platform: spec.Name, AlphaStep: opts.AlphaStep, Curves: map[string]Curve{}}
	for bi, b := range suite {
		curve, err := fit(b, samples[bi], opts)
		if err != nil {
			return nil, fmt.Errorf("powerchar: %s on %s: %w", b.Category, spec.Name, err)
		}
		model.Curves[b.Category.Key()] = curve
	}
	return model, nil
}

// alphaGrid enumerates the sweep's α points. It uses the same
// accumulating loop the serial sweep always used, so the grid (and with
// it every fitted coefficient) is bit-identical to historical models.
// Unlike sched.AlphaGrid, its points drift off the exact multiples of
// step (0.30000000000000004, …, 0.9999999999999999 at step 0.1); the
// fits are pinned bit-identical, so it deliberately keeps the old loop.
func alphaGrid(step float64) []float64 {
	alphas := make([]float64, 0, int(1/step)+2)
	for alpha := 0.0; alpha <= 1.0+1e-9; alpha += step {
		alphas = append(alphas, vmath.Clamp(alpha, 0, 1))
	}
	return alphas
}

// MeasureAlpha runs one micro-benchmark at one offload ratio on a fresh
// platform and reports the measured sample. Exposed for the trace tools
// that regenerate the paper's power-over-time figures.
func MeasureAlpha(spec platform.Spec, b microbench.Benchmark, alpha float64) (Sample, error) {
	p, err := platform.New(spec)
	if err != nil {
		return Sample{}, err
	}
	e := engine.New(p)
	alpha = vmath.Clamp(alpha, 0, 1)
	n := float64(b.N)
	res, err := e.Run(engine.Phase{
		Kernel:    b.Kernel,
		GPUItems:  alpha * n,
		PoolItems: (1 - alpha) * n,
	})
	if err != nil {
		return Sample{}, err
	}
	sec := res.Duration.Seconds()
	if sec <= 0 {
		return Sample{}, fmt.Errorf("powerchar: zero-duration measurement at alpha=%v", alpha)
	}
	return Sample{Alpha: alpha, Watts: res.EnergyJ / sec, Seconds: sec}, nil
}

// fit turns one category's measured sweep (already in ascending α
// order — the grid is enumerated low to high) into a fitted curve.
func fit(b microbench.Benchmark, samples []Sample, opts Options) (Curve, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Alpha
		ys[i] = s.Watts
	}
	poly, err := vmath.FitPoly(xs, ys, opts.PolyDegree)
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Category: b.Category,
		Coeffs:   poly.Coeffs,
		Samples:  samples,
		R2:       vmath.RSquared(poly, xs, ys),
	}, nil
}

// Save writes the model as JSON — the "computed once per processor"
// artifact the runtime loads at startup.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("powerchar: encoding model: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a model saved with Save and verifies it is complete.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("powerchar: reading model: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("powerchar: decoding model %s: %w", path, err)
	}
	if !m.Complete() {
		return nil, fmt.Errorf("powerchar: model %s is missing category curves", path)
	}
	return &m, nil
}
