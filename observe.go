package eas

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/obs"
)

// Observer collects end-to-end observability data from every runtime
// it is attached to (via Config.Observer): a per-invocation span trace
// kept in a bounded in-memory ring, a decision-audit record for every
// α search, and a registry of runtime metrics. One Observer may be
// shared by any number of Runtimes — invocation ids stay unique across
// all of them, so a multi-tenant process renders as one coherent
// timeline.
//
// Everything here is optional and near-free when absent: a Runtime
// whose Config.Observer is nil runs the exact historical code path and
// allocates nothing extra.
type Observer struct {
	inner *obs.Observer
	ring  *obs.RingSink
	reg   *obs.Registry
	pprof bool
}

// ObserverOptions tunes a new Observer. The zero value is a good
// default.
type ObserverOptions struct {
	// RingCapacity bounds the span ring buffer (default 8192 spans ≈
	// the last ~1500 invocations); older spans are overwritten.
	RingCapacity int
	// Flight arms the black-box flight recorder: an always-on ring of
	// compact scheduler events (decisions, sheds, breaker transitions,
	// watchdog stalls, WAL errors) that anomaly triggers freeze into
	// JSON incident dumps. The zero value keeps the recorder off.
	Flight FlightPolicy
	// EnablePprof mounts Go's net/http/pprof profiling endpoints under
	// /debug/pprof/ on Handler and Serve. Off by default — the profile
	// endpoints expose process internals and cost CPU while sampled, so
	// they are strictly opt-in.
	EnablePprof bool
}

// FlightPolicy configures the flight recorder (see ObserverOptions.
// Flight). Any non-zero field arms the recorder; zero sub-fields pick
// defaults. The watchdog-stall and breaker-open triggers are always
// armed once recording; the rate triggers need their thresholds set.
type FlightPolicy struct {
	// Enable arms the recorder even with every other field zero.
	Enable bool
	// Events bounds the event ring (default 4096).
	Events int
	// Dir receives incident dump files named
	// incident-<n>-<trigger>.json ("" keeps dumps in memory only,
	// served at /debug/flight).
	Dir string
	// Debounce is the minimum spacing between dumps — an anomaly storm
	// inside the window produces one dump, with the rest counted in the
	// artifact's "suppressed" field (default 30s).
	Debounce time.Duration
	// ShedSpike triggers a dump when this many admission sheds land
	// inside ShedWindow (default window 1s). 0 disables the trigger.
	ShedSpike int
	// ShedWindow is the shed-spike sliding window (default 1s).
	ShedWindow time.Duration
	// P99Latency triggers a dump when the sliding-window p99 of
	// invocation latencies exceeds it. 0 disables the trigger.
	P99Latency time.Duration
	// LatencyWindow is how many recent invocations the p99 estimate
	// spans (default 256).
	LatencyWindow int
}

// enabled reports whether any field arms the recorder.
func (p FlightPolicy) enabled() bool {
	return p != FlightPolicy{}
}

func (p FlightPolicy) internal() obs.FlightPolicy {
	return obs.FlightPolicy{
		Events:        p.Events,
		Dir:           p.Dir,
		Debounce:      p.Debounce,
		ShedSpike:     p.ShedSpike,
		ShedWindow:    p.ShedWindow,
		P99Latency:    p.P99Latency,
		LatencyWindow: p.LatencyWindow,
	}
}

// NewObserver builds an observer with a bounded span ring and a fresh
// metrics registry.
func NewObserver(opts ObserverOptions) *Observer {
	capacity := opts.RingCapacity
	if capacity <= 0 {
		capacity = obs.DefaultRingCapacity
	}
	ring := obs.NewRingSink(capacity)
	reg := obs.NewRegistry()
	o := &Observer{inner: obs.New(ring, reg), ring: ring, reg: reg, pprof: opts.EnablePprof}
	if opts.Flight.enabled() {
		o.inner.AttachFlight(opts.Flight.internal())
	}
	return o
}

// internal returns the wrapped observer (nil for a nil Observer), the
// form Config plumbing hands to the scheduler core.
func (o *Observer) internal() *obs.Observer {
	if o == nil {
		return nil
	}
	return o.inner
}

// WriteChromeTrace renders the ring's current span snapshot as Chrome
// trace-event JSON, loadable directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Each invocation is
// one track; the alpha-search span's args carry the full decision
// audit (measured throughputs, workload category, fitted curve, and
// the objective at every α grid point).
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return errors.New("eas: nil observer")
	}
	return obs.WriteChromeTrace(w, o.ring.Snapshot())
}

// WriteMetrics writes the metrics registry in Prometheus text
// exposition format (version 0.0.4).
func (o *Observer) WriteMetrics(w io.Writer) error {
	if o == nil {
		return errors.New("eas: nil observer")
	}
	return o.reg.WritePrometheus(w)
}

// Handler returns an http.Handler serving /metrics (Prometheus text),
// /debug/trace (Chrome trace JSON of the current ring snapshot),
// /debug/tenants (per-tenant accounting JSON), /debug/flight (the
// flight recorder's latest incident, when one is armed), and — with
// ObserverOptions.EnablePprof — Go's /debug/pprof/ endpoints.
func (o *Observer) Handler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return obs.NewHTTPHandlerOpts(obs.HTTPOptions{
		Registry:    o.reg,
		Ring:        o.ring,
		Observer:    o.inner,
		EnablePprof: o.pprof,
	})
}

// FlightDumps reports how many incident dumps the flight recorder has
// produced (0 when the recorder is not armed).
func (o *Observer) FlightDumps() uint64 {
	if o == nil {
		return 0
	}
	return o.inner.Flight().Dumps()
}

// Serve starts an HTTP server for Handler on addr (e.g.
// "localhost:9190"; a ":0" port picks a free one — read the bound
// address back from ObserverServer.Addr). The server runs until
// Close.
func (o *Observer) Serve(addr string) (*ObserverServer, error) {
	if o == nil {
		return nil, errors.New("eas: nil observer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("eas: observer listen: %w", err)
	}
	srv := &http.Server{Handler: o.Handler()}
	s := &ObserverServer{addr: ln.Addr().String(), srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// ObserverServer is a running metrics/trace HTTP endpoint.
type ObserverServer struct {
	addr      string
	srv       *http.Server
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound listen address (host:port) — the way to learn
// the actual port after Serve(":0").
func (s *ObserverServer) Addr() string { return s.addr }

// Close shuts the endpoint down. Idempotent.
func (s *ObserverServer) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}

// registerRuntimeCollectors wires a runtime's always-on component
// counters (work-stealing pool, GPU command queue) into the observer's
// registry as pull-style metrics: a collector snapshots the component
// stats at scrape time and folds the delta since the previous scrape
// into shared counters, so several runtimes on one observer sum
// cleanly.
func (o *Observer) registerRuntimeCollectors(r *Runtime) {
	if o == nil {
		return
	}
	steals := o.reg.Counter("eas_ws_steals_total",
		"Work-stealing chunks executed by a worker other than their owner.")
	parks := o.reg.Counter("eas_ws_parks_total",
		"Idle episodes in which a pool worker parked on the semaphore.")
	wakes := o.reg.Counter("eas_ws_wakes_total",
		"Wakeups delivered to parked pool workers.")
	enqueues := o.reg.Counter("eas_cl_enqueues_total",
		"Functional GPU NDRange enqueues attempted.")
	busy := o.reg.Counter("eas_cl_enqueue_busy_total",
		"Functional GPU enqueues transiently rejected as device-busy.")
	lastPool := r.pool.Stats()
	lastQ := r.queue.Stats()
	o.reg.RegisterCollector(func() {
		p := r.pool.Stats()
		steals.Add(p.Steals - lastPool.Steals)
		parks.Add(p.Parks - lastPool.Parks)
		wakes.Add(p.Wakes - lastPool.Wakes)
		lastPool = p
		q := r.queue.Stats()
		enqueues.Add(q.Enqueues - lastQ.Enqueues)
		busy.Add(q.Busy - lastQ.Busy)
		lastQ = q
	})
	o.registerAdmissionCollectors(r)
}

// registerAdmissionCollectors exposes admission-gate pressure on
// /metrics: total queued waiters always, and — when the tiered
// controller is active — per-class queue depths, per-class admission
// counters, shed counters by reason, aging promotions, and
// late-release counts. Deltas fold at scrape time like the other
// pull-style collectors, so several runtimes on one observer sum
// cleanly. (Watchdog stalls are push-style — see RecordWatchdogStall —
// because each one also lands in the trace as a degradation instant.)
func (o *Observer) registerAdmissionCollectors(r *Runtime) {
	adm := r.sched.Admission()
	waiters := o.reg.Gauge("eas_admission_waiters",
		"Invocations currently queued at the admission gate.")
	if !adm.Tiered() {
		o.reg.RegisterCollector(func() {
			waiters.Set(float64(adm.Waiters()))
		})
		return
	}
	var depth [core.NumClasses]*obs.Gauge
	var admittedC [core.NumClasses]*obs.Counter
	for c := core.Class(0); c < core.NumClasses; c++ {
		depth[c] = o.reg.Gauge(
			`eas_admission_queue_depth{class="`+c.String()+`"}`,
			"Invocations queued at the admission gate, by priority class.")
		admittedC[c] = o.reg.Counter(
			`eas_admission_admitted_total{class="`+c.String()+`"}`,
			"Invocations admitted through the tiered gate, by priority class.")
	}
	shedHelp := "Invocations shed at the admission gate, by reason."
	shedQuota := o.reg.Counter(`eas_admission_shed_total{reason="tenant-quota"}`, shedHelp)
	shedQueue := o.reg.Counter(`eas_admission_shed_total{reason="queue-full"}`, shedHelp)
	shedDeadline := o.reg.Counter(`eas_admission_shed_total{reason="deadline"}`, shedHelp)
	aging := o.reg.Counter("eas_admission_aging_promotions_total",
		"Grants in which aging let a lower-priority waiter overtake a queued higher class.")
	late := o.reg.Counter("eas_admission_late_releases_total",
		"Releases arriving after the watchdog had already revoked the holder's ticket.")
	var last core.AdmissionStats
	o.reg.RegisterCollector(func() {
		waiters.Set(float64(adm.Waiters()))
		st, ok := adm.TieredStats()
		if !ok {
			return
		}
		for c := 0; c < core.NumClasses; c++ {
			depth[c].Set(float64(st.QueueDepth[c]))
			admittedC[c].Add(st.Admitted[c] - last.Admitted[c])
		}
		shedQuota.Add(st.ShedQuota - last.ShedQuota)
		shedQueue.Add(st.ShedQueueFull - last.ShedQueueFull)
		shedDeadline.Add(st.ShedDeadline - last.ShedDeadline)
		aging.Add(st.AgingPromotions - last.AgingPromotions)
		late.Add(st.LateReleases - last.LateReleases)
		last = st
	})
}

// invocationAttrs builds the root-span closing attributes for a
// completed invocation (only called on enabled scopes).
func invocationAttrs(out *Report) []obs.Attr {
	attrs := []obs.Attr{
		obs.Num("alpha", out.Alpha),
		obs.Num("energy_j", out.EnergyJ),
		obs.Num("duration_us", float64(out.Duration.Microseconds())),
	}
	if out.FallbackReason != FallbackNone {
		attrs = append(attrs, obs.Str("fallback", string(out.FallbackReason)))
	}
	return attrs
}

// finishScope closes an invocation's root span and records its metric
// deltas — the eas layer owns the scope, so it records exactly once,
// amending the core's fallback reason with the functional layer's more
// specific one (enqueue-error, gpu-timeout) when the degradation
// happened there.
func (r *Runtime) finishScope(ctx context.Context, sc obs.Scope, rep *core.Report, kernel string, out *Report, started time.Time) {
	if !sc.Enabled() {
		return
	}
	st := core.StatsFor(rep)
	st.Kernel = kernel
	req := core.RequestFromContext(ctx)
	st.Tenant = req.Tenant
	st.Class = req.Class.String()
	st.Seconds = time.Since(started).Seconds()
	st.Alpha = out.Alpha
	st.Retries = out.Retries
	if out.FallbackReason != FallbackNone {
		st.Fallback = string(out.FallbackReason)
	}
	sc.End(invocationAttrs(out)...)
	r.obsv.RecordInvocation(st)
}
