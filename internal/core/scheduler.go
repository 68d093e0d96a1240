package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/msr"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/profile"
	"github.com/hetsched/eas/internal/robust"
	"github.com/hetsched/eas/internal/statestore"
	"github.com/hetsched/eas/internal/wclass"
)

// Retry tunes recovery from transient GPU unavailability: a dispatch
// that finds the device busy is retried after a capped exponential
// backoff (spent as simulated idle time, so the energy accounting
// stays honest) before the scheduler degrades to CPU-only execution.
type Retry struct {
	// MaxAttempts is the total dispatch attempts per phase (default 3).
	MaxAttempts int
	// BaseBackoff is the first backoff (default 500µs simulated).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 8ms).
	MaxBackoff time.Duration
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 500 * time.Microsecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 8 * time.Millisecond
	}
	return r
}

// Options tune the EAS scheduler. Zero values select the paper's
// settings.
type Options struct {
	// AlphaStep is the α grid granularity (paper: 0.1).
	AlphaStep float64
	// RefineAlpha refines each grid search's winner with a golden-section
	// pass over the winning cell (BestAlphaRefined). The result is never
	// worse than the plain grid; the cost is a handful of extra objective
	// evaluations per decision.
	RefineAlpha bool
	// ProfileShare is the fraction of the first invocation's
	// iterations consumed by repeated profiling steps (paper: 0.5 —
	// "repeat profiling for half of the iterations").
	ProfileShare float64
	// ReprofileEvery re-runs profiling on every k-th invocation of a
	// known kernel, for workloads whose behaviour drifts over time:
	// counting the initial profiled invocation as 1, every invocation
	// whose ordinal is a multiple of k profiles again (k=1 profiles
	// every time; k=2 on invocations 2, 4, 6, …). Only recorded
	// invocations count — small-N and fallback runs do not advance the
	// schedule. 0 disables re-profiling (Fig. 7's default).
	ReprofileEvery int
	// GrowProfileChunk doubles the GPU profiling chunk between
	// repeated steps ([12]'s size-based strategy); when false every
	// step uses GPU_PROFILE_SIZE.
	GrowProfileChunk bool
	// ConvergeTol stops repeated profiling early once two consecutive
	// steps agree on both throughputs within the given relative
	// tolerance (but never before the second step). This keeps the
	// hybrid-power profiling exposure small for long kernels whose
	// behaviour is stable. Zero disables early stopping (the paper's
	// literal repeat-until-half rule); negative also disables.
	ConvergeTol float64
	// MaxProfileSteps caps the repeated profiling loop; 0 is unlimited
	// (bounded by ProfileShare). 1 gives the naive single-probe
	// strategy of Kaleem et al. [12], which the paper's size-based
	// strategy improves on.
	MaxProfileSteps int
	// ShortLongThreshold overrides the 100 ms short/long classification
	// cut (0 keeps the paper's value). The paper notes the threshold
	// should ideally derive from the PCU's sampling frequency and
	// leaves tuning to future work; see report.AblationThresholds.
	ShortLongThreshold time.Duration
	// MemoryBoundThreshold overrides the 0.33 miss-per-load/store cut
	// (0 keeps the paper's value).
	MemoryBoundThreshold float64
	// Retry tunes recovery from transient GPU-busy dispatch failures.
	Retry Retry

	// Telemetry-robustness knobs. All zero values disable the layer
	// entirely, keeping reports byte-identical to the historical
	// behaviour (Options must also stay comparable — scalars only).

	// RobustMeter routes invocation energy through a robust.EnergyMeter
	// that rejects implausible MSR samples (wrap-horizon violations,
	// outliers, stuck counters) and substitutes the characterized
	// model's predicted power.
	RobustMeter bool
	// Meter tunes the robust meter; zero fields pick defaults derived
	// from the platform (MaxPlausiblePower = 4×TDP, window 5, Hampel
	// K=8, 4 stuck reads).
	Meter robust.MeterConfig
	// ValidateProfiles sanitizes online-profile observations against
	// the platform envelope before they may influence scheduling:
	// impossible observations are quarantined (never reach the α
	// table, force a re-profile next invocation), implausible
	// throughput ratios are clamped.
	ValidateProfiles bool
	// CategoryHysteresis ≥ 2 requires that many consecutive recorded
	// profiles to disagree before the remembered workload category
	// flips. 0 or 1 keeps last-writer-wins.
	CategoryHysteresis int
	// BreakerThreshold enables the GPU circuit breaker: after this
	// many consecutive GPU fallbacks the scheduler stops offering work
	// to the GPU. 0 disables the breaker.
	BreakerThreshold int
	// BreakerProbeAfter is how many suppressed invocations an open
	// breaker waits before half-opening for a probe (default 8).
	BreakerProbeAfter int

	// Observer receives per-invocation span traces, decision-audit
	// records, and runtime metrics. Nil (the default) disables all
	// instrumentation: every hook degrades to a nil-check and the hot
	// path allocates nothing. A pointer keeps Options comparable.
	Observer *obs.Observer

	// Reuse pools per-invocation state: decision-audit Explain records
	// and their α-grid buffers are drawn from a sync.Pool and recycled
	// when the observer's ring sink evicts the span that owns them.
	// Scheduling decisions, reports, and observer payloads are
	// unaffected — only allocation behaviour changes; the zero value
	// keeps the historical allocate-per-decision behaviour.
	Reuse bool

	// Overload-resilience knobs (tiered.go). With every field zero the
	// gate is the legacy fair FIFO, byte-identical and allocation-free;
	// any nonzero field (or AdmissionTiered) switches the gate to the
	// tiered controller. Per-tenant quota overrides are a map and so
	// live outside Options (Scheduler.SetTenantQuota) to keep Options
	// comparable.

	// AdmissionTiered enables the tiered controller even when every
	// numeric knob below keeps its default.
	AdmissionTiered bool
	// AdmissionTenantRate / AdmissionTenantBurst are the default
	// per-tenant token-bucket quota (admissions/sec, bucket depth).
	AdmissionTenantRate  float64
	AdmissionTenantBurst float64
	// AdmissionQueueDepth bounds each class queue; arrivals beyond it
	// are shed with ErrOverloaded.
	AdmissionQueueDepth int
	// AdmissionAgingStep is the starvation-proofing rate (default 100ms
	// once tiering is on).
	AdmissionAgingStep time.Duration
	// AdmissionWatchdog force-releases the gate when one invocation
	// holds it longer than this bound.
	AdmissionWatchdog time.Duration
	// AdmissionRetryFloor is the minimum RetryAfter attached to
	// backlog-estimate sheds (default 1ms once tiering is on; negative
	// disables the floor). Setting it alone enables the tiered
	// controller.
	AdmissionRetryFloor time.Duration

	// Batched decision-path knobs (coalesce.go). Every zero value keeps
	// the decision path byte-identical to the legacy behaviour.

	// CoalesceDecisions deduplicates concurrent scheduling decisions:
	// invocations of the same kernel that would profile join a single
	// flight whose leader runs the one online profile + α search, and
	// followers execute their full iteration count at the published α
	// (Report.Coalesced) instead of queueing for their own profile.
	CoalesceDecisions bool
	// TableTTL bounds the age of a table record the scheduler will
	// replay: a record older than the TTL is re-profiled even when
	// nothing else asks for it. Together with MinConfidence it also
	// enables the fresh-entry fast path — a periodic re-profile
	// (ReprofileEvery) is skipped while the record is younger than the
	// TTL and confident enough (Report.FastPath). 0 disables age
	// checks.
	TableTTL time.Duration
	// MinConfidence is the number of recorded invocations a record
	// needs before the fast path may skip a periodic re-profile. 0
	// disables the confidence gate (the fast path then needs TableTTL).
	MinConfidence int
	// Durable-state knobs (state.go). With StatePath empty — the zero
	// value — persistence is completely off: no store is opened, the
	// mutation hooks degrade to one nil check, and the scheduling path
	// is byte-identical to the in-memory-only behaviour.

	// StatePath names the α-table snapshot file; the WAL lives beside
	// it at StatePath+".wal". Opening recovers whatever state the files
	// hold (tolerating torn tails and corrupt records) and routes every
	// loaded record through the same evidence sanitization as live
	// accumulation.
	StatePath string
	// StateSync selects WAL durability: 0 flushes+fsyncs at compaction
	// and Close only (buffered appends; a hard kill loses the records
	// since the last sync, never file integrity); 1 fsyncs every
	// append (a hard kill loses at most the torn record being written).
	StateSync int
	// StateCompactEvery is how many WAL records trigger compaction into
	// a fresh atomic snapshot (0 picks the statestore default, 1024).
	StateCompactEvery int
	// ShardGatePerDevice shards the admission gate per device (CPU,
	// GPU) instead of per runtime: invocations whose conservative
	// pre-admission device masks are disjoint — an α=0 CPU-only replay
	// next to an α=1 GPU-only replay — run concurrently. Profiling and
	// mixed-α invocations still claim both devices. The engine
	// serializes phases internally so concurrency is race-free; the
	// trade is that the per-domain energy split (CPUEnergyJ/GPUEnergyJ/
	// DRAMEnergyJ) spans the whole invocation and may include a
	// concurrent tenant's activity. Incompatible with the tiered
	// admission controller and with RobustMeter.
	ShardGatePerDevice bool
}

// admissionTiered reports whether any overload knob asks for the
// tiered admission controller.
func (o Options) admissionTiered() bool {
	return o.AdmissionTiered || o.AdmissionTenantRate != 0 || o.AdmissionTenantBurst != 0 ||
		o.AdmissionQueueDepth != 0 || o.AdmissionAgingStep != 0 || o.AdmissionWatchdog != 0 ||
		o.AdmissionRetryFloor != 0
}

func (o Options) withDefaults() Options {
	if o.AlphaStep <= 0 {
		o.AlphaStep = 0.1
	}
	if o.ProfileShare <= 0 || o.ProfileShare > 1 {
		o.ProfileShare = 0.5
	}
	if o.ShortLongThreshold <= 0 {
		o.ShortLongThreshold = wclass.ShortLongThreshold
	}
	if o.MemoryBoundThreshold <= 0 {
		o.MemoryBoundThreshold = wclass.MemoryBoundThreshold
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// record is one entry of the global table G: the per-kernel state the
// runtime remembers across invocations. Only profiled executions feed
// the accumulated α — the small-N CPU-alone fallback must not drag a
// kernel's ratio toward zero, or ramped workloads (BFS frontiers that
// start tiny) would never use the GPU at all.
type record struct {
	alpha       float64 // sample-weighted accumulated offload ratio
	weight      float64 // total items behind alpha
	category    wclass.Category
	invocations int
	profiled    bool
	// reprofile forces the next invocation to profile again — set when
	// a profile was quarantined, cleared by the next clean accumulate.
	reprofile bool
	// pendingCat/pendingN implement classification hysteresis: the
	// candidate category recent profiles disagree toward, and how many
	// consecutive profiles have agreed on it.
	pendingCat wclass.Category
	pendingN   int
	// updatedAt is when the record last accumulated an observation —
	// the age side of the fast path's TTL/confidence check.
	updatedAt time.Time
}

// Report describes one ParallelFor invocation as executed by EAS.
type Report struct {
	// Alpha is the GPU offload ratio used for the post-profiling
	// remainder of the invocation.
	Alpha float64
	// Profiled is true when this invocation ran online profiling.
	Profiled bool
	// ProfileSteps counts the repeated profiling steps.
	ProfileSteps int
	// Category is the workload class used to pick the power curve
	// (meaningful only when Profiled).
	Category wclass.Category
	// CatKnown is true when Category was actually resolved this
	// invocation — profiled, replayed from the table, or inherited from
	// a coalesced leader. Small-N, GPU-busy, and breaker-suppressed
	// runs decide nothing and leave it false, so per-category metrics
	// never count the zero category as a decision.
	CatKnown bool
	// GPUBusyFallback is true when the invocation ran CPU-only because
	// another application owned the GPU — either observed upfront (the
	// paper's A26 check) or after transient busy dispatches exhausted
	// the retry budget. Fallback runs never feed the α table.
	GPUBusyFallback bool
	// Retries counts every GPU dispatch attempt that found the device
	// busy, including the final attempt that exhausts the retry budget
	// on fallback paths — it is the number of busy rejections observed,
	// so dispatch attempts = successes + Retries.
	Retries int
	// Duration and EnergyJ are the invocation's simulated totals.
	Duration time.Duration
	EnergyJ  float64
	// ProfileDuration is the simulated time spent inside repeated
	// profiling steps (a subset of Duration; zero when not Profiled) —
	// the profiling overhead the paper's half-iterations rule bounds.
	ProfileDuration time.Duration
	// CPUEnergyJ, GPUEnergyJ and DRAMEnergyJ split the package energy
	// by RAPL domain (cores / integrated GPU / memory), measured across
	// the whole invocation inside the admission critical section so
	// concurrent tenants never see each other's energy.
	CPUEnergyJ, GPUEnergyJ, DRAMEnergyJ float64
	// CPUItems and GPUItems are the items each device processed.
	CPUItems, GPUItems float64
	// PredictedPower and PredictedTime are the model's estimates at
	// the chosen α for the remainder (diagnostics; zero if unprofiled).
	PredictedPower, PredictedTime float64
	// Telemetry grades how trustworthy this invocation's energy
	// measurement was (always Healthy when the robust meter is off).
	Telemetry robust.Health
	// MeterSamplesRejected counts MSR samples the robust meter rejected
	// and substituted during this invocation.
	MeterSamplesRejected int
	// ProfileQuarantined is true when this invocation's profile was
	// physically impossible and was discarded before reaching the α
	// table; ProfileSanitized when it was merely clamped to the
	// platform envelope.
	ProfileQuarantined, ProfileSanitized bool
	// BreakerOpen is true when the invocation ran CPU-only because the
	// GPU circuit breaker was open; BreakerState is the breaker's
	// position after the invocation (BreakerClosed when disabled).
	BreakerOpen  bool
	BreakerState robust.BreakerState
	// Coalesced is true when this invocation executed another
	// invocation's published decision instead of deciding itself
	// (Options.CoalesceDecisions); FastPath when a fresh,
	// high-confidence table record let it skip a periodic re-profile
	// (Options.TableTTL / MinConfidence).
	Coalesced, FastPath bool
}

// MetricValue evaluates a metric over the invocation's measurements.
func (r Report) MetricValue(m metrics.Metric) float64 {
	return m.EvalEnergy(r.EnergyJ, r.Duration.Seconds())
}

// Scheduler is the energy-aware scheduling runtime. It is safe for
// concurrent use: it drives one engine/platform, and an admission gate
// serializes whole invocations onto it in fair FIFO order, while the
// global table G is sharded and lock-protected so Alpha lookups and
// accumulations from any goroutine are race-free.
type Scheduler struct {
	eng    *engine.Engine
	model  *powerchar.Model
	metric metrics.Metric
	opts   Options
	adm    Admission   // serializes invocations onto the engine
	table  *alphaTable // the paper's global table G

	// curves is the model's curve set resolved to a dense array at
	// construction, so hot-path curve lookups are an index instead of a
	// map probe on a freshly built key string.
	curves  [wclass.NumCategories]powerchar.Curve
	curveOK [wclass.NumCategories]bool
	// curveIDs names each curve for the decision audit
	// (Explain.CurveID); see curveID.
	curveIDs     [wclass.NumCategories]string
	curveIDsOnce sync.Once

	// reuse holds the pooled per-invocation state enabled by
	// Options.Reuse (nil otherwise).
	reuse *reuseState

	// Telemetry-robustness state (nil / zero when the knobs are off).
	rmeter  *robust.EnergyMeter // robust package-energy reader
	breaker *robust.Breaker     // GPU circuit breaker
	env     profile.Envelope    // platform plausibility envelope
	// invPredW is the model's predicted power for the in-flight
	// invocation — the substitution value when a meter sample is
	// rejected. Invocation-scoped: the admission gate serializes
	// access, so no lock is needed (and ShardGatePerDevice, which
	// breaks that serialization, is rejected alongside RobustMeter).
	invPredW float64

	// Batched decision-path state (nil when the knobs are off).
	coal  *coalescer   // decision singleflight (CoalesceDecisions)
	gates *DeviceGates // per-device sharded gate (ShardGatePerDevice)

	// Durable-state layer (nil when Options.StatePath is empty).
	// stateMu serializes {table mutation + WAL append} against
	// {table export + compaction}, so a snapshot never absorbs a
	// mutation whose WAL record would then land in the fresh WAL and
	// replay twice on recovery. store is immutable after New: a write
	// failure disables the store internally instead of nil-ing the
	// field, keeping the hot-path check an unsynchronized pointer test.
	stateMu  sync.Mutex
	store    *statestore.Store
	recovery RecoveryStats
}

// New builds an EAS scheduler over an engine, a platform power
// characterization, and the energy metric to optimize.
func New(eng *engine.Engine, model *powerchar.Model, metric metrics.Metric, opts Options) (*Scheduler, error) {
	if eng == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	if model == nil || !model.Complete() {
		return nil, fmt.Errorf("core: power characterization model missing or incomplete")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("core: invalid metric")
	}
	s := &Scheduler{
		eng:    eng,
		model:  model,
		metric: metric,
		opts:   opts.withDefaults(),
		table:  newAlphaTable(),
	}
	s.curves, s.curveOK = model.CurveTable()
	if s.opts.Reuse {
		s.reuse = newReuseState(s.opts.Observer)
	}
	s.breaker = robust.NewBreaker(s.opts.BreakerThreshold, s.opts.BreakerProbeAfter)
	spec := eng.Platform().Spec()
	if s.opts.RobustMeter {
		cfg := s.opts.Meter
		if cfg.MaxPlausiblePowerW <= 0 {
			// Package power physically cannot sustain far beyond TDP;
			// 4× leaves room for short turbo excursions.
			cfg.MaxPlausiblePowerW = 4 * spec.Policy.TDPW
			if cfg.MaxPlausiblePowerW <= 0 {
				cfg.MaxPlausiblePowerW = 400
			}
		}
		if cfg.Window <= 0 {
			cfg.Window = 5
		}
		if cfg.HampelK <= 0 {
			cfg.HampelK = 8
		}
		if cfg.StuckReads <= 0 {
			cfg.StuckReads = 4
		}
		s.rmeter = robust.NewEnergyMeter(eng.Platform().MSR, cfg)
	}
	if s.opts.ValidateProfiles {
		s.env = profile.EnvelopeFor(spec)
	}
	if o := s.opts.Observer; o.Enabled() && s.breaker != nil {
		s.breaker.SetOnTransition(func(from, to robust.BreakerState) {
			o.RecordBreakerTransition(int(to))
		})
	}
	if s.opts.CoalesceDecisions {
		s.coal = newCoalescer()
	}
	if s.opts.ShardGatePerDevice {
		if s.opts.admissionTiered() {
			return nil, fmt.Errorf("core: ShardGatePerDevice is incompatible with the tiered admission controller (the classed queues assume one gate)")
		}
		if s.opts.RobustMeter {
			return nil, fmt.Errorf("core: ShardGatePerDevice is incompatible with RobustMeter (the meter's substitution state is serialized by the whole-runtime gate)")
		}
		s.gates = &DeviceGates{}
	}
	if s.opts.admissionTiered() {
		topts := TieredOptions{
			TenantRate:      s.opts.AdmissionTenantRate,
			TenantBurst:     s.opts.AdmissionTenantBurst,
			QueueDepth:      s.opts.AdmissionQueueDepth,
			AgingStep:       s.opts.AdmissionAgingStep,
			Watchdog:        s.opts.AdmissionWatchdog,
			RetryAfterFloor: s.opts.AdmissionRetryFloor,
		}
		if o := s.opts.Observer; o.Enabled() {
			topts.OnStall = func(tenant string, held time.Duration) {
				o.RecordWatchdogStall(tenant, held)
			}
		}
		s.adm.Configure(topts)
	}
	if s.opts.StatePath != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Admission returns the scheduler's admission gate, for queue-pressure
// gauges (Waiters, QueueDepths) and tiered-controller statistics.
func (s *Scheduler) Admission() *Admission { return &s.adm }

// SetTenantQuota overrides the admission token-bucket rate for one
// tenant (no-op on a legacy, non-tiered gate). rate <= 0 exempts the
// tenant from quota enforcement.
func (s *Scheduler) SetTenantQuota(tenant string, rate, burst float64) {
	s.adm.SetTenantQuota(tenant, rate, burst)
}

// Breaker returns the GPU circuit breaker (nil when disabled). The
// runtime's functional layer records its own fallback outcomes —
// enqueue failures, dispatch timeouts — through it so breaker state
// reflects every path work can fail over to the CPU.
func (s *Scheduler) Breaker() *robust.Breaker { return s.breaker }

// Metric returns the objective the scheduler optimizes.
func (s *Scheduler) Metric() metrics.Metric { return s.metric }

// curve returns the characterization curve for a category from the
// dense table resolved at construction — an array index instead of
// building a key string and probing the model's map on every decision.
func (s *Scheduler) curve(cat wclass.Category) (powerchar.Curve, bool) {
	i := cat.Index()
	return s.curves[i], s.curveOK[i]
}

// Alpha returns the accumulated offload ratio remembered for a kernel,
// with ok=false for never-seen kernels. It is safe to call from any
// goroutine, including while invocations are in flight.
func (s *Scheduler) Alpha(kernelName string) (float64, bool) {
	rec, ok := s.table.lookup(kernelName)
	if !ok {
		return 0, false
	}
	return rec.alpha, true
}

// Kernels returns the number of kernels the global table remembers.
func (s *Scheduler) Kernels() int { return s.table.Len() }

// ParallelFor executes n parallel iterations of kernel k with
// energy-aware CPU-GPU partitioning — the EAS algorithm of Fig. 7.
// It is safe for concurrent use: callers queue at the admission gate
// and run one at a time against the simulated platform.
func (s *Scheduler) ParallelFor(k engine.Kernel, n int) (Report, error) {
	return s.ParallelForCtx(context.Background(), k, n)
}

// ParallelForCtx is ParallelFor with cancellable admission: a caller
// whose context is cancelled while queued behind other invocations
// returns ctx.Err() without touching the engine. Once admitted, the
// invocation runs to completion — it executes in virtual time and
// returns quickly, and an admitted tenant must not leave the simulated
// clock mid-phase.
func (s *Scheduler) ParallelForCtx(ctx context.Context, k engine.Kernel, n int) (Report, error) {
	var rep Report
	var err error
	if o := s.opts.Observer; o.Enabled() {
		err = s.parallelForObserved(ctx, &k, n, o, &rep)
	} else {
		var sc obs.Scope
		err = s.ParallelForScoped(ctx, &k, n, &sc, &rep)
	}
	if err != nil {
		return Report{}, err
	}
	return rep, nil
}

// parallelForObserved is ParallelForCtx under an invocation scope the
// scheduler opens, closes and records itself.
func (s *Scheduler) parallelForObserved(ctx context.Context, k *engine.Kernel, n int, o *obs.Observer, rep *Report) error {
	sc := o.BeginInvocation(o.NextInvocationID(), k.Name)
	if err := s.ParallelForScoped(ctx, k, n, &sc, rep); err != nil {
		sc.End(obs.Str("error", err.Error()))
		return err
	}
	recordInvocation(ctx, o, &sc, k.Name, rep)
	return nil
}

// recordInvocation closes a completed invocation's scope and records
// its metrics. It stays out of parallelForObserved's frame, which runs
// on the caller's starting stack.
func recordInvocation(ctx context.Context, o *obs.Observer, sc *obs.Scope, kernel string, rep *Report) {
	st := StatsFor(rep)
	st.Kernel = kernel
	req := RequestFromContext(ctx)
	st.Tenant = req.Tenant
	st.Class = req.Class.String()
	st.Seconds = sc.Elapsed().Seconds()
	sc.End(obs.Num("alpha", rep.Alpha), obs.Num("energy_j", rep.EnergyJ))
	o.RecordInvocation(st)
}

// StatsFor summarizes a completed invocation's report as the metric
// deltas the observer registry records. Callers that open their own
// scope via ParallelForScoped fold these in exactly once per
// invocation (amending the fallback reason if they know a more
// specific one); the ParallelForCtx path does it automatically.
func StatsFor(rep *Report) obs.InvocationStats {
	st := obs.InvocationStats{
		Seconds:        rep.Duration.Seconds(),
		ProfileSeconds: rep.ProfileDuration.Seconds(),
		Alpha:          rep.Alpha,
		Retries:        rep.Retries,
		Profiled:       rep.Profiled,
		ProfileSteps:   rep.ProfileSteps,
		MeterRejected:  rep.MeterSamplesRejected,
		Quarantined:    rep.ProfileQuarantined,
		Sanitized:      rep.ProfileSanitized,
		BreakerState:   int(rep.BreakerState),
		Coalesced:      rep.Coalesced,
		FastPath:       rep.FastPath,
		CPUEnergyJ:     rep.CPUEnergyJ,
		GPUEnergyJ:     rep.GPUEnergyJ,
		DRAMEnergyJ:    rep.DRAMEnergyJ,
	}
	if rep.CatKnown {
		// Category.Key() is interned — no allocation on the hot path.
		st.Category = rep.Category.Key()
	}
	switch {
	case rep.BreakerOpen:
		st.Fallback = "breaker-open"
	case rep.GPUBusyFallback:
		st.Fallback = "gpu-busy"
	}
	return st
}

// growFrame is growStack's frame size. Together with the runtime's
// 928-byte stack guard it does not fit in an 8 KiB stack, so a
// goroutine on its 2 KiB starting stack grows once, straight to 16 KiB:
// the largest size the per-P stack cache serves (a 32 KiB stack would
// come from the heap, under the heap lock).
const growFrame = 7<<10 + 512

// growStack takes an invocation's one stack growth while the stack is
// still shallow. A goroutine started per request otherwise grows
// 2→4→8→16 KiB on demand, deep in the engine, and every growth copies
// the stack and re-walks every frame on it. It runs before the gate,
// not after it: parking in the gate's select needs more room than a
// 2 KiB stack has left under the caller's frames, so a growth after
// admission would be a second one for every caller that waits.
// ci/check-hot-frames.sh keeps the frames above the call within the
// starting stack and those below it within the grown one.
//
// Callers pass 0. The frame is reserved, and the stack grown, on entry;
// only the branch that is never taken would clear it, so on a stack
// that already has the room the call costs next to nothing.
//
//go:noinline
func growStack(i int) byte {
	if i > 0 {
		var pad [growFrame]byte
		return pad[i%growFrame]
	}
	return 0
}

// GrowStack takes the invocation's one stack growth (see growStack)
// for a caller that has frames of its own to push before
// ParallelForScoped: eas.Runtime.ParallelForCtx calls it before it
// opens the invocation's observer scope.
func GrowStack() { growStack(0) }

// ParallelForScoped is ParallelForCtx under a caller-owned observer
// scope, writing the invocation's report into *rep (which it clears
// first; after an error *rep is unspecified). Spans for admission
// wait, profiling, the α search (with its Explain decision audit), and
// remainder execution are emitted as children of sc, and instant
// events mark retries, fallbacks, and breaker suppressions. The caller
// owns the scope's lifecycle — it calls sc.End and records invocation
// metrics (see StatsFor) itself. A zero Scope (or one from a nil
// observer) disables all of it.
//
// It starts by taking the invocation's one stack growth (growStack),
// while the caller's stack is still shallow; when the caller has taken
// it already (GrowStack), the call costs next to nothing.
func (s *Scheduler) ParallelForScoped(ctx context.Context, k *engine.Kernel, n int, sc *obs.Scope, rep *Report) error {
	growStack(0)
	return s.admit(ctx, k, n, sc, rep)
}

// admit resolves the invocation's table entry and coalesced-flight
// role, queues it at the gate and runs it once admitted.
func (s *Scheduler) admit(ctx context.Context, k *engine.Kernel, n int, sc *obs.Scope, rep *Report) error {
	if n <= 0 {
		return errNonPositive(k.Name, n)
	}
	*rep = Report{}
	// Resolve the kernel's interned table entry once; every table touch
	// on the invocation's hot path is a pointer dereference from here on.
	ent := s.table.intern(k.Name)
	var plan invPlan
	if s.coal != nil {
		var err error
		if plan, err = s.joinCoalesce(ctx, k, n, sc, ent); err != nil {
			return err
		}
		if plan.flight != nil {
			defer s.resolveFlight(k.Name, plan.flight)
		}
	}
	switch {
	case s.gates != nil:
		return s.parallelForSharded(ctx, k, n, sc, plan, ent, rep)
	case s.adm.t != nil:
		return s.parallelForTiered(ctx, k, n, sc, plan, ent, rep)
	}
	if sc.Enabled() {
		wait := sc.Span("admission-wait")
		if err := s.adm.Acquire(ctx); err != nil {
			wait.End(obs.Str("error", err.Error()))
			return err
		}
		wait.End()
	} else if err := s.adm.Acquire(ctx); err != nil {
		return err
	}
	defer s.adm.Release()
	return s.runAdmitted(k, n, sc, plan, ent, rep)
}

func errNonPositive(kernel string, n int) error {
	return fmt.Errorf("core: non-positive iteration count %d for kernel %q", n, kernel)
}

// resolveFlight resolves a coalesced flight this invocation leads,
// exactly once, on every exit — including a cancelled admission Acquire
// or a tiered-gate shed that never reaches the decision body.
// Publishing happens inline at the decision points in parallelFor; any
// other exit aborts here, which sends the flight's followers to solo
// decisions. The flight only leaves the map here, after the table is
// updated, so a late same-kernel arrival shares the decision instead of
// profiling again.
func (s *Scheduler) resolveFlight(kernel string, f *decisionFlight) {
	if f.abort() {
		s.coal.recordAbort()
		if o := s.opts.Observer; o.Enabled() {
			o.RecordCoalesceAbort()
		}
	}
	s.coal.finish(kernel, f)
}

// joinCoalesce decides this invocation's role in the decision
// singleflight. An invocation that would not profile (replay, small-N)
// stays solo. Otherwise it joins the kernel's flight: the creator
// leads — it proceeds to the gate and runs the one profile + α search,
// resolving the flight on the way out — and everyone else parks here,
// *before* queueing at the admission gate (the leader holds the gate
// for its whole invocation, so waiting after Acquire would deadlock),
// until the leader publishes or aborts.
func (s *Scheduler) joinCoalesce(ctx context.Context, k *engine.Kernel, n int, sc *obs.Scope, ent *kernelEntry) (invPlan, error) {
	if float64(n) < float64(s.eng.Platform().GPUProfileSize()) || !s.wouldProfile(ent) {
		return invPlan{}, nil
	}
	f, leader := s.coal.join(k.Name)
	if leader {
		// The join window: yield once so concurrently-arriving
		// same-kernel invocations get scheduled, join the flight and
		// park before the leader claims the gate. On a saturated (or
		// single-P) runtime the arrivals are runnable but would
		// otherwise only run after the leader's entire decision, and
		// every invocation would lead its own flight; on an idle
		// multi-core runtime the yield is a few nanoseconds.
		runtime.Gosched()
		return invPlan{flight: f}, nil
	}
	var wait obs.Timed
	if sc.Enabled() {
		wait = sc.Span("coalesce-wait")
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		if wait.Enabled() {
			wait.End(obs.Str("error", ctx.Err().Error()))
		}
		return invPlan{}, ctx.Err()
	}
	if dec, ok := f.result(); ok {
		if wait.Enabled() {
			wait.End(obs.Num("alpha", dec.Alpha))
		}
		return invPlan{forced: &dec}, nil
	}
	// The leader exited without a decision: fall back to a fully solo
	// invocation rather than re-joining — re-joins behind a persistently
	// failing leader would livelock the population.
	if wait.Enabled() {
		wait.End(obs.Str("outcome", "aborted"))
	}
	return invPlan{}, nil
}

// wouldProfile mirrors parallelFor's needProfile decision from outside
// the admission gate — the coalesce-eligibility and device-mask
// pre-checks. It may race with a concurrent accumulate; a stale answer
// only costs a redundant flight or a conservative mask, never
// correctness.
func (s *Scheduler) wouldProfile(ent *kernelEntry) bool {
	var rec record
	if !ent.snapshot(&rec) || !rec.profiled || rec.reprofile {
		return true
	}
	if s.tableStale(rec) {
		return true
	}
	if s.opts.ReprofileEvery > 0 && (rec.invocations+1)%s.opts.ReprofileEvery == 0 {
		return !s.fastFresh(rec)
	}
	return false
}

// tableStale reports whether the record's α has outlived Options.TableTTL.
func (s *Scheduler) tableStale(rec record) bool {
	return s.opts.TableTTL > 0 && !rec.updatedAt.IsZero() &&
		time.Since(rec.updatedAt) > s.opts.TableTTL
}

// fastFresh reports whether the record is confident enough for the
// fast path to skip a periodic re-profile. With both knobs zero it is
// always false (the legacy path, byte-identical); freshness itself is
// tableStale's job — callers check it first.
func (s *Scheduler) fastFresh(rec record) bool {
	if s.opts.TableTTL == 0 && s.opts.MinConfidence == 0 {
		return false
	}
	return s.opts.MinConfidence <= 0 || rec.invocations >= s.opts.MinConfidence
}

// parallelForSharded is the admission path behind the per-device
// sharded gate: the invocation claims only the devices its
// conservative pre-admission estimate says it needs, so disjoint
// invocations overlap.
func (s *Scheduler) parallelForSharded(ctx context.Context, k *engine.Kernel, n int, sc *obs.Scope, plan invPlan, ent *kernelEntry, rep *Report) error {
	mask := s.deviceMaskFor(n, plan, ent)
	if sc.Enabled() {
		wait := sc.Span("admission-wait")
		if err := s.gates.Acquire(ctx, mask); err != nil {
			wait.End(obs.Str("error", err.Error()))
			return err
		}
		wait.End(obs.Num("device_mask", float64(mask)))
	} else if err := s.gates.Acquire(ctx, mask); err != nil {
		return err
	}
	defer s.gates.Release(mask)
	return s.runAdmitted(k, n, sc, plan, ent, rep)
}

// deviceMaskFor estimates which devices an invocation will drive,
// before it is admitted. Only decisions that are stable by
// construction narrow the mask — a coalesced follower's forced α, a
// small-N CPU-only run, or a replayed α pinned at exactly 0 or 1;
// anything that will (or might) profile claims both devices. The mask
// is conservative, not a contract: see DeviceGates.
func (s *Scheduler) deviceMaskFor(n int, plan invPlan, ent *kernelEntry) DeviceMask {
	var alpha float64
	switch {
	case plan.flight != nil:
		return DeviceAll // leads a flight: will profile on both devices
	case plan.forced != nil:
		alpha = plan.forced.Alpha
	default:
		if float64(n) < float64(s.eng.Platform().GPUProfileSize()) {
			return DeviceCPU
		}
		var rec record
		if !ent.snapshot(&rec) || !rec.profiled || s.wouldProfile(ent) {
			return DeviceAll
		}
		alpha = rec.alpha
	}
	switch {
	case alpha <= 0:
		return DeviceCPU
	case alpha >= 1:
		return DeviceGPU
	}
	return DeviceAll
}

// parallelForTiered is the admission path behind the tiered
// admission controller: it reads the invocation's admission attributes
// (tenant, class, deadline budget) from the context, may be shed with
// ErrOverloaded before touching anything, and runs under watchdog
// supervision — a force-released invocation returns
// ErrAdmissionRevoked instead of its report, because a revoked gate
// means another tenant may have driven the engine concurrently.
func (s *Scheduler) parallelForTiered(ctx context.Context, k *engine.Kernel, n int, sc *obs.Scope, plan invPlan, ent *kernelEntry, rep *Report) error {
	req := RequestFromContext(ctx)
	runCtx := ctx
	var cancel context.CancelFunc
	if s.adm.WatchdogEnabled() {
		// The watchdog revokes by cancelling this derived context; the
		// deferred cancel releases the timer resources on normal return.
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var ticket uint64
	var err error
	if sc.Enabled() {
		wait := sc.Span("admission-wait")
		ticket, err = s.adm.AcquireTiered(ctx, req, cancel)
		if err != nil {
			wait.End(obs.Str("error", err.Error()))
			s.recordShed(err)
			return err
		}
		wait.End(obs.Str("class", req.Class.String()))
	} else if ticket, err = s.adm.AcquireTiered(ctx, req, cancel); err != nil {
		s.recordShed(err)
		return err
	}
	defer s.adm.ReleaseTiered(ticket)

	// Fault injection: a scripted slow-tenant hold wedges this
	// invocation, wall-clock, while it owns the gate — exactly the
	// failure the watchdog exists for. The stall is interruptible by
	// watchdog revocation (runCtx cancellation) or the caller's own
	// cancel.
	if d := s.eng.FaultPlan().TakeAdmissionHold(); d > 0 {
		if sc.Enabled() {
			sc.Event("admission-hold", obs.Num("hold_ms", float64(d.Milliseconds())))
		}
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-runCtx.Done():
			timer.Stop()
		}
	}
	if s.adm.Revoked(ticket) {
		return ErrAdmissionRevoked
	}
	if err := s.runAdmitted(k, n, sc, plan, ent, rep); err != nil {
		return err
	}
	if s.adm.Revoked(ticket) {
		return ErrAdmissionRevoked
	}
	return nil
}

// recordShed attributes one tiered-gate load-shedding rejection to its
// tenant and reason in the observer (metrics and flight ring). Only
// typed ErrOverloaded rejections count — a cancelled admission wait is
// the caller's doing, not the gate's.
func (s *Scheduler) recordShed(err error) {
	o := s.opts.Observer
	if !o.Enabled() {
		return
	}
	var ov *ErrOverloaded
	if errors.As(err, &ov) {
		o.RecordShed(ov.Tenant, ov.Class.String(), ov.Reason)
	}
}

// runAdmitted is the admission critical section shared by every gate:
// the caller holds the gate; energy meters span the whole invocation
// so the deltas belong to this tenant alone.
func (s *Scheduler) runAdmitted(k *engine.Kernel, n int, sc *obs.Scope, plan invPlan, ent *kernelEntry, rep *Report) error {
	p := s.eng.Platform()
	pp0 := msr.NewMeter(p.MSRPP0)
	pp1 := msr.NewMeter(p.MSRPP1)
	dram := msr.NewMeter(p.MSRDRAM)
	var pre robust.MeterStats
	if s.rmeter != nil {
		// Discard whatever interval elapsed since the previous tenant's
		// last sample; it is not this invocation's energy.
		s.rmeter.Resync()
		pre = s.rmeter.Stats()
		s.invPredW = 0
	}
	if err := s.parallelFor(k, n, sc, plan, ent, rep); err != nil {
		return err
	}
	rep.CPUEnergyJ = pp0.Joules()
	rep.GPUEnergyJ = pp1.Joules()
	rep.DRAMEnergyJ = dram.Joules()
	if s.rmeter != nil {
		post := s.rmeter.Stats()
		rejected := post.Rejected - pre.Rejected
		accepted := post.Accepted - pre.Accepted
		rep.MeterSamplesRejected = rejected
		switch {
		case post.Stuck, rejected > 0 && rejected >= accepted:
			rep.Telemetry = robust.Failed
		case rejected > 0:
			rep.Telemetry = robust.Degraded
		}
	}
	if rep.ProfileQuarantined || rep.ProfileSanitized {
		rep.Telemetry = rep.Telemetry.Worse(robust.Degraded)
	}
	rep.BreakerState = s.breaker.State()
	return nil
}

// parallelFor is the EAS algorithm proper; the caller holds the
// admission gate. A flight-leading plan is resolved by
// ParallelForScoped's deferred resolveFlight, which also covers exits
// that never reach this body.
func (s *Scheduler) parallelFor(k *engine.Kernel, n int, sc *obs.Scope, plan invPlan, ent *kernelEntry, rep *Report) error {
	// GPU owned by another application (the A26 check): CPU-only run,
	// nothing recorded. The breaker counts it like any other
	// GPU-unavailable fallback.
	if s.eng.Platform().GPUBusy() {
		rep.GPUBusyFallback = true
		if err := s.cpuOnly(k, n, sc, "gpu-busy-upfront", rep); err != nil {
			return err
		}
		s.breaker.RecordFallback()
		return nil
	}

	// Too little parallelism to fill the GPU: multi-core CPU alone
	// (Fig. 7 steps 6-10). The run is not recorded: a tiny frontier
	// says nothing about how larger invocations should split.
	if float64(n) < float64(s.eng.Platform().GPUProfileSize()) {
		return s.cpuOnly(k, n, sc, "small-n-cpu-only", rep)
	}

	// Circuit breaker open: the GPU has been failing every recent
	// invocation, so stop paying dispatch+timeout latency and run
	// CPU-only. Not recorded — a suppressed run says nothing about the
	// kernel's best split.
	if !s.breaker.Allow() {
		rep.BreakerOpen = true
		return s.cpuOnly(k, n, sc, "breaker-suppressed", rep)
	}

	var rec record
	known := ent.snapshot(&rec) && rec.profiled
	// rec.invocations counts completed recorded invocations, so this
	// one's ordinal is rec.invocations+1; it re-profiles when that
	// ordinal is a multiple of k, making k=1 profile every invocation
	// and k=2 fire first on the 2nd (not 3rd) invocation. A
	// quarantined profile also forces a re-profile (rec.reprofile).
	needProfile := !known || rec.reprofile ||
		(s.opts.ReprofileEvery > 0 && (rec.invocations+1)%s.opts.ReprofileEvery == 0)
	if known && !rec.reprofile {
		if s.tableStale(rec) {
			// The remembered α outlived its TTL: too old to trust, even
			// if no periodic re-profile was due.
			needProfile = true
		} else if needProfile && s.fastFresh(rec) {
			// Fresh-entry fast path: the record is young and confident
			// enough that the periodic re-profile would just re-measure
			// what the table already knows.
			needProfile = false
			rep.FastPath = true
		}
	}

	nrem := float64(n)
	var alpha float64
	quarantined := false
	switch {
	case plan.forced != nil:
		// Coalesced follower: execute the full iteration count at the
		// leader's published α — no profiling, no search.
		dec := plan.forced
		alpha = dec.Alpha
		rep.Category = dec.Category
		rep.CatKnown = true
		rep.Coalesced = true
		rep.PredictedPower = dec.PredictedPower
		rep.PredictedTime = dec.PredictedTime
		if s.rmeter != nil {
			s.predictPower(dec.Category, dec.Alpha)
		}
	case known && !needProfile:
		// Fig. 7 steps 2-4: reuse the accumulated α.
		alpha = rec.alpha
		rep.Category = rec.category
		rep.CatKnown = true
		if s.rmeter != nil {
			s.predictPower(rec.category, rec.alpha)
		}
		if plan.flight != nil {
			// A leader that landed on the replay path (another
			// invocation filled the table between join and admission)
			// still publishes, so its followers replay the same α
			// instead of stalling until the deferred abort.
			plan.flight.publish(Decision{Alpha: alpha, Category: rec.category})
		}
	default:
		var err error
		alpha, nrem, quarantined, err = s.profileDecide(k, n, sc, plan, ent, rep, &rec, known)
		if err != nil || rep.GPUBusyFallback {
			return err
		}
	}
	rep.Alpha = alpha

	// Fig. 7 steps 23-25: execute the remainder with the chosen split.
	if nrem > 0 {
		if err := s.execute(k, nrem, alpha, sc, rep); err != nil || rep.GPUBusyFallback {
			return err
		}
	}

	// The invocation touched the GPU (profiling chunks and/or an α>0
	// remainder) and completed without falling back: the device works.
	if rep.Profiled || alpha > 0 {
		s.breaker.RecordSuccess()
	}

	// Fig. 7 step 26: sample-weighted α accumulation across
	// invocations. A quarantined profile never reaches the table.
	if !quarantined {
		if s.store == nil {
			ent.accumulate(alpha, float64(n), rep.Category, s.opts.CategoryHysteresis)
		} else {
			s.accumulatePersist(ent, k.Name, alpha, float64(n), rep.Category)
		}
	}
	return nil
}

// cpuOnly runs all the items on the CPU — the GPU-busy, small-N and
// breaker-open branches, which neither consult nor feed the α table.
func (s *Scheduler) cpuOnly(k *engine.Kernel, n int, sc *obs.Scope, event string, rep *Report) error {
	sc.Event(event)
	res, err := s.eng.Run(engine.Phase{Kernel: *k, PoolItems: float64(n)})
	if err != nil {
		return err
	}
	s.addResult(rep, &res)
	return nil
}

// predictPower sets the model's power at α for the in-flight
// invocation: the robust meter's substitution value.
func (s *Scheduler) predictPower(cat wclass.Category, alpha float64) {
	if curve, ok := s.curve(cat); ok {
		s.invPredW = curve.Power(alpha)
	}
}

// profileDecide is Fig. 7 steps 11-22: repeated online profiling over
// the first half of the iterations, then the α search — or, for a
// quarantined profile, a replay of the last known-good split (CPU-only
// for unknown kernels). It returns the α, the items left for the
// remainder and whether the profile was quarantined. If the GPU stays
// busy mid-profile it finishes the invocation CPU-only instead
// (rep.GPUBusyFallback).
func (s *Scheduler) profileDecide(k *engine.Kernel, n int, sc *obs.Scope, plan invPlan, ent *kernelEntry, rep *Report, rec *record, known bool) (alpha, nrem float64, quarantined bool, err error) {
	acc, nrem, err := s.profileSteps(k, n, sc, rep)
	if err != nil || rep.GPUBusyFallback {
		return 0, nrem, false, err
	}
	rep.Profiled = true
	if s.opts.ValidateProfiles {
		san, clamped, qerr := s.env.Sanitize(acc)
		if qerr != nil {
			// The profile is physically impossible: never let it near
			// the α table, and force a fresh profile next invocation.
			s.quarantine(k.Name, sc, ent, qerr, rep)
			if known {
				alpha = rec.alpha
				rep.Category = rec.category
				rep.CatKnown = true
			}
			return alpha, nrem, true, nil
		}
		acc = san
		rep.ProfileSanitized = clamped
	}
	alpha, err = s.search(k.Name, n, nrem, &acc, sc, plan, rep)
	return alpha, nrem, false, err
}

// profileSteps runs the repeated profiling steps and returns their
// merged observation and the items still to execute.
func (s *Scheduler) profileSteps(k *engine.Kernel, n int, sc *obs.Scope, rep *Report) (acc profile.Observation, nrem float64, err error) {
	var prof obs.Timed
	if sc.Enabled() {
		prof = sc.Span("profile")
	}
	var prev profile.Observation
	nrem = float64(n)
	chunk := float64(s.eng.Platform().GPUProfileSize())
	stopAt := float64(n) * (1 - s.opts.ProfileShare)
	for nrem > stopAt && nrem > 0 {
		gpuChunk := chunk
		if gpuChunk > nrem {
			gpuChunk = nrem
		}
		var step obs.Timed
		if prof.Enabled() {
			step = prof.Child("profile-step")
		}
		var ob profile.Observation
		var remaining float64
		err := s.retryBusy(rep, sc, func() error {
			var e error
			ob, remaining, e = profile.Step(s.eng, *k, gpuChunk, nrem-gpuChunk)
			return e
		})
		if errors.Is(err, engine.ErrGPUBusy) {
			// The GPU became (and stayed) busy mid-profiling: finish
			// the invocation CPU-only and remember nothing.
			if step.Enabled() {
				step.End(obs.Str("outcome", "gpu-busy"))
				prof.End(obs.Num("steps", float64(rep.ProfileSteps)))
			}
			return acc, nrem, s.cpuFallback(k, nrem, sc, rep)
		}
		if err != nil {
			return acc, nrem, err
		}
		if step.Enabled() {
			step.End(obs.Num("gpu_chunk", gpuChunk),
				obs.Num("rc", ob.RC), obs.Num("rg", ob.RG))
		}
		rep.ProfileSteps++
		if rep.ProfileSteps == 1 {
			acc = ob
		} else {
			acc = profile.Merge(acc, ob)
		}
		rep.Duration += ob.Duration
		rep.ProfileDuration += ob.Duration
		rep.EnergyJ += s.measureEnergy(ob.Duration, ob.EnergyJ)
		rep.CPUItems += ob.CPUItems
		rep.GPUItems += ob.GPUItems
		nrem = remaining
		if s.opts.MaxProfileSteps > 0 && rep.ProfileSteps >= s.opts.MaxProfileSteps {
			break
		}
		if s.opts.ConvergeTol > 0 && rep.ProfileSteps >= 2 &&
			within(ob.RC, prev.RC, s.opts.ConvergeTol) &&
			within(ob.RG, prev.RG, s.opts.ConvergeTol) {
			break
		}
		prev = ob
		if s.opts.GrowProfileChunk {
			chunk *= 2
		}
	}
	if prof.Enabled() {
		prof.End(obs.Num("steps", float64(rep.ProfileSteps)),
			obs.Num("rc", acc.RC), obs.Num("rg", acc.RG))
	}
	return acc, nrem, nil
}

// quarantine keeps a physically impossible profile away from the α
// table: the kernel re-profiles on its next invocation.
func (s *Scheduler) quarantine(kernel string, sc *obs.Scope, ent *kernelEntry, cause error, rep *Report) {
	rep.ProfileQuarantined = true
	if sc.Enabled() {
		sc.Event("profile-quarantined", obs.Str("cause", cause.Error()))
	}
	ent.markReprofile()
	if s.store != nil {
		s.persistReprofile(kernel)
	}
}

// search classifies the profile, picks the category's power curve and
// runs the α grid search, publishing the decision to a flight this
// invocation leads.
func (s *Scheduler) search(kernel string, n int, nrem float64, acc *profile.Observation, sc *obs.Scope, plan invPlan, rep *Report) (float64, error) {
	rep.Category = acc.ClassifyWith(nrem, s.opts.ShortLongThreshold, s.opts.MemoryBoundThreshold)
	rep.CatKnown = true
	curve, ok := s.curve(rep.Category)
	if !ok {
		return 0, errNoCurve(rep.Category)
	}
	tm := TimeModel{RC: acc.RC, RG: acc.RG}
	if !tm.Valid() {
		return 0, fmt.Errorf("core: profiling produced no usable throughputs for kernel %q", kernel)
	}
	// Search over at least half an invocation's work: profiling may
	// have consumed nearly everything (small N), and the α chosen here
	// is what the table replays on *future* invocations, so it must
	// reflect a representative workload size, not a remnant.
	searchN := nrem
	if half := float64(n) / 2; searchN < half {
		searchN = half
		rep.Category = acc.ClassifyWith(searchN, s.opts.ShortLongThreshold, s.opts.MemoryBoundThreshold)
		curve, ok = s.curve(rep.Category)
		if !ok {
			return 0, errNoCurve(rep.Category)
		}
	}
	var span obs.Timed
	if sc.Enabled() {
		span = sc.Span("alpha-search")
	}
	var alpha float64
	if s.opts.RefineAlpha {
		alpha, _ = BestAlphaRefined(curve, tm, searchN, s.metric, s.opts.AlphaStep, 0)
	} else {
		alpha, _ = BestAlpha(curve, tm, searchN, s.metric, s.opts.AlphaStep)
	}
	if span.Enabled() {
		span.EndExplain(s.explain(curve, tm, searchN, alpha, rep.Category))
	}
	rep.PredictedTime = tm.Time(alpha, searchN)
	rep.PredictedPower = curve.Power(alpha)
	s.invPredW = rep.PredictedPower
	if f := plan.flight; f != nil {
		if s.eng.FaultPlan().TakeCoalesceLeaderFail() {
			// Injected leader failure: the decision is ready but never
			// published — the deferred abort wakes the followers into
			// their solo fallback. The leader's own invocation
			// continues unharmed.
			sc.Event("coalesce-leader-fail")
		} else {
			f.publish(Decision{
				Alpha:          alpha,
				Category:       rep.Category,
				RC:             tm.RC,
				RG:             tm.RG,
				PredictedPower: rep.PredictedPower,
				PredictedTime:  rep.PredictedTime,
			})
		}
	}
	return alpha, nil
}

func errNoCurve(cat wclass.Category) error {
	return fmt.Errorf("core: characterization has no curve for %s", cat)
}

// execute runs the remainder at the chosen split (Fig. 7 steps 23-25).
// If the GPU stays busy it finishes CPU-only instead
// (rep.GPUBusyFallback).
func (s *Scheduler) execute(k *engine.Kernel, nrem, alpha float64, sc *obs.Scope, rep *Report) error {
	var span obs.Timed
	if sc.Enabled() {
		span = sc.Span("execute")
	}
	var res engine.Result
	err := s.retryBusy(rep, sc, func() error {
		var e error
		res, e = s.eng.Run(engine.Phase{
			Kernel:    *k,
			GPUItems:  alpha * nrem,
			PoolItems: (1 - alpha) * nrem,
		})
		return e
	})
	if errors.Is(err, engine.ErrGPUBusy) {
		if span.Enabled() {
			span.End(obs.Str("outcome", "gpu-busy"))
		}
		return s.cpuFallback(k, nrem, sc, rep)
	}
	if err != nil {
		return err
	}
	if span.Enabled() {
		span.End(obs.Num("gpu_items", alpha*nrem),
			obs.Num("cpu_items", (1-alpha)*nrem))
	}
	s.addResult(rep, &res)
	return nil
}

// retryBusy runs op, retrying GPU-busy dispatch failures with capped
// exponential backoff spent as simulated idle time (so the clock and
// the energy MSR both see the stall). The last error — nil, a
// non-busy failure, or the final busy — is returned. Every busy
// rejection counts toward rep.Retries, including the final attempt
// that exhausts the budget: Retries is the number of busy dispatches
// observed, not the number of backoffs slept.
func (s *Scheduler) retryBusy(rep *Report, sc *obs.Scope, op func() error) error {
	backoff := s.opts.Retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, engine.ErrGPUBusy) {
			return err
		}
		rep.Retries++
		if sc.Enabled() {
			sc.Event("gpu-retry", obs.Num("attempt", float64(attempt)),
				obs.Num("backoff_us", float64(backoff.Microseconds())))
		}
		if attempt >= s.opts.Retry.MaxAttempts {
			return err
		}
		meter := msr.NewMeter(s.eng.Platform().MSR)
		s.eng.RunIdle(backoff, nil)
		rep.Duration += backoff
		rep.EnergyJ += s.measureEnergy(backoff, meter.Joules())
		backoff *= 2
		if backoff > s.opts.Retry.MaxBackoff {
			backoff = s.opts.Retry.MaxBackoff
		}
	}
}

// cpuFallback drains the remaining items CPU-only after the GPU
// became unavailable mid-invocation. The run is NOT accumulated into
// the α table — a degraded execution says nothing about the kernel's
// best split, and must not drag the remembered ratio toward zero.
func (s *Scheduler) cpuFallback(k *engine.Kernel, items float64, sc *obs.Scope, rep *Report) error {
	if sc.Enabled() {
		sc.Event("cpu-fallback", obs.Num("items", items))
	}
	if items > 0 {
		res, err := s.eng.Run(engine.Phase{Kernel: *k, PoolItems: items})
		if err != nil {
			return err
		}
		s.addResult(rep, &res)
	}
	rep.GPUBusyFallback = true
	rep.Alpha = 0
	s.breaker.RecordFallback()
	return nil
}

// explain reconstructs the α grid search as a decision-audit record:
// the measured throughputs, the workload category and fitted curve the
// search ran against, and the objective value at every grid point. It
// re-walks the same grid BestAlpha walked (the Objective closure is
// cheap — a polynomial evaluation and a division per point) so the
// search itself stays untouched and allocation-free when tracing is
// off.
func (s *Scheduler) explain(curve powerchar.Curve, tm TimeModel, searchN, alpha float64, cat wclass.Category) *obs.Explain {
	obj := Objective(curve, tm, searchN, s.metric)
	steps := int(math.Round(1 / s.opts.AlphaStep))
	if steps < 1 {
		steps = 1
	}
	// The grid buffer comes from the reuse pool when Options.Reuse is
	// on (recycled by the observer's ring sink at span eviction);
	// otherwise it is a fresh allocation, as it always was.
	ex := s.reuse.getExplain(steps + 1)
	for i := 0; i <= steps; i++ {
		a := float64(i) / float64(steps)
		ex.Grid = append(ex.Grid, obs.GridPoint{Alpha: a, Objective: obj(a)})
	}
	ex.RC = tm.RC
	ex.RG = tm.RG
	ex.Category = cat.Key()
	ex.CurveID = s.curveID(cat) // curve is s.curves[cat.Index()]
	ex.AlphaStep = s.opts.AlphaStep
	ex.Alpha = alpha
	ex.Objective = obj(alpha)
	ex.Refined = s.opts.RefineAlpha
	return ex
}

// curveID names the category's curve for the decision audit. The ids
// of all curves are formatted together on the first audit, not once per
// search, and not at construction: a scheduler without an Observer
// never audits, and report evaluation builds many of those.
func (s *Scheduler) curveID(cat wclass.Category) string {
	s.curveIDsOnce.Do(func() {
		for i, c := range s.curves {
			if s.curveOK[i] {
				s.curveIDs[i] = fmt.Sprintf("%s~deg%d(r2=%.3f)", c.Category.Key(), len(c.Coeffs)-1, c.R2)
			}
		}
	})
	return s.curveIDs[cat.Index()]
}

// within reports whether a and b agree within relative tolerance tol.
func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	m := a
	if b > m {
		m = b
	}
	return m > 0 && diff/m <= tol
}

// addResult folds an engine result into the report, routing its energy
// through the robust meter when one is configured.
func (s *Scheduler) addResult(rep *Report, res *engine.Result) {
	rep.Duration += res.Duration
	rep.EnergyJ += s.measureEnergy(res.Duration, res.EnergyJ)
	rep.CPUItems += res.CPUItems
	rep.GPUItems += res.GPUItems
}

// measureEnergy returns the energy to account for an interval of
// simulated duration d whose raw (engine-measured) energy was raw.
// Without a robust meter it is the identity on raw — byte-identical to
// the historical accounting. With one, the robust meter re-reads the
// MSR itself, judges the sample, and substitutes the model's predicted
// power for the in-flight invocation when the sample is untrustworthy.
func (s *Scheduler) measureEnergy(d time.Duration, raw float64) float64 {
	if s.rmeter == nil {
		return raw
	}
	j, _ := s.rmeter.Measure(d, s.invPredW)
	return j
}
