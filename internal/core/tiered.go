package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the tiered admission controller: the overload-resilient
// replacement for the plain fair-FIFO gate in admission.go. It exists
// because an open-loop population of tenants does not stop submitting
// when the node saturates — queues grow without bound, every queued
// invocation pays the backlog's full latency, and one wedged tenant
// holding the gate starves everyone. The controller bounds all three
// failure modes explicitly:
//
//   - per-tenant token buckets shed a tenant's excess arrival rate at
//     the door with a typed ErrOverloaded carrying RetryAfter, instead
//     of letting one chatty tenant fill the queue;
//   - priority classes (interactive > batch > background) order the
//     queue by urgency, with starvation-proof aging: a waiter's
//     effective class improves by one level per AgingStep waited, so
//     background work is delayed by at most the aging bound, never
//     forever;
//   - bounded per-class queues convert unbounded queueing delay into
//     immediate, honest rejection;
//   - a deadline budget attached to the request is checked against the
//     gate's measured backlog, so an invocation that cannot possibly
//     meet its deadline is shed before it wastes a profiling slot;
//   - a watchdog force-releases the gate when a holder stalls past a
//     bound: the holder's context is cancelled, the stall is surfaced
//     to the observer as a degradation instant, and the next waiter is
//     admitted, so one hung tenant cannot deadlock the node.
//
// Everything here is opt-in. An Admission that was never Configure()d
// runs the exact legacy FIFO code path in admission.go — byte-identical
// scheduling, zero allocations.

// Class is an invocation's priority class at the admission gate.
// Lower values are more urgent.
type Class int

const (
	// ClassInteractive is latency-sensitive foreground work.
	ClassInteractive Class = iota
	// ClassBatch is throughput-oriented work that tolerates queueing.
	ClassBatch
	// ClassBackground is best-effort work admitted only when nothing
	// more urgent waits (subject to aging).
	ClassBackground
	// NumClasses is the number of priority classes.
	NumClasses = 3
)

// String returns the class's metrics/log label.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// clamp forces an arbitrary int-valued class into the valid range.
func (c Class) clamp() Class {
	if c < ClassInteractive {
		return ClassInteractive
	}
	if c >= NumClasses {
		return ClassBackground
	}
	return c
}

// AdmitRequest carries an invocation's admission attributes: who is
// asking, how urgent it is, and how much latency it can still afford.
// The zero value is an anonymous interactive request with no deadline.
type AdmitRequest struct {
	// Tenant identifies the caller for per-tenant quota accounting.
	// The empty string is a valid (shared) tenant.
	Tenant string
	// Class is the request's priority class.
	Class Class
	// DeadlineBudget is the admission latency the invocation can still
	// absorb and meet its deadline; 0 means no deadline. A request whose
	// budget is below the gate's estimated wait is shed immediately, and
	// a queued request whose budget expires before it is granted is shed
	// at grant time instead of wasting the slot.
	DeadlineBudget time.Duration
}

// admitKey carries an AdmitRequest through a context.
type admitKey struct{}

// WithRequest attaches admission attributes to a context; the scheduler
// reads them when the tiered controller is enabled (and ignores them —
// without even looking — when it is not).
func WithRequest(ctx context.Context, req AdmitRequest) context.Context {
	req.Class = req.Class.clamp()
	return context.WithValue(ctx, admitKey{}, req)
}

// RequestFromContext returns the admission attributes attached with
// WithRequest, or the zero request.
func RequestFromContext(ctx context.Context) AdmitRequest {
	req, _ := ctx.Value(admitKey{}).(AdmitRequest)
	return req
}

// Shed reasons reported in ErrOverloaded.Reason and as the metrics
// label eas_admission_shed_total{reason=...}.
const (
	// ShedTenantQuota: the tenant's token bucket was empty.
	ShedTenantQuota = "tenant-quota"
	// ShedQueueFull: the request's class queue was at capacity.
	ShedQueueFull = "queue-full"
	// ShedDeadline: the request could not meet its deadline budget —
	// either the estimated wait already exceeded it at arrival, or the
	// budget expired while the request was queued.
	ShedDeadline = "deadline"
)

// ErrOverloaded is the typed load-shedding rejection: the gate refused
// to queue the invocation and nothing was executed (the α table and the
// engine were never touched). RetryAfter is the gate's estimate of when
// a retry could succeed — the retry-after contract: it is advisory and
// best-effort, never a reservation.
type ErrOverloaded struct {
	// Tenant and Class echo the rejected request.
	Tenant string
	Class  Class
	// Reason is one of ShedTenantQuota, ShedQueueFull, ShedDeadline.
	Reason string
	// RetryAfter estimates how long until an identical request could be
	// admitted (token refill time for quota sheds, backlog drain
	// estimate otherwise). Zero means "no estimate", not "retry now".
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("core: overloaded (%s): tenant %q class %s shed, retry after %v",
		e.Reason, e.Tenant, e.Class, e.RetryAfter)
}

// ErrAdmissionRevoked reports that the watchdog force-released the
// caller's hold on the admission gate: the invocation stalled past the
// configured bound, its context was cancelled, and the gate was handed
// to the next waiter. The invocation must not touch the engine.
var ErrAdmissionRevoked = errors.New("core: admission revoked by watchdog")

// TieredOptions configures the tiered admission controller. The zero
// value of every field selects a sensible default once tiering is
// enabled; tiering as a whole is enabled by Admission.Configure.
type TieredOptions struct {
	// TenantRate is the default per-tenant admission quota in
	// admissions/second; 0 leaves tenants unlimited. Each tenant gets
	// its own token bucket at this rate (override per tenant with
	// SetTenantQuota).
	TenantRate float64
	// TenantBurst is the bucket depth — how many admissions a tenant
	// may burst above its sustained rate (default 1: strict pacing).
	TenantBurst float64
	// QueueDepth bounds each class's waiting queue; a request arriving
	// at a full queue is shed with ShedQueueFull. 0 is unbounded.
	QueueDepth int
	// AgingStep is the starvation-proofing rate: a waiter's effective
	// class improves by one level per AgingStep waited, so the worst
	// inversion a class-c waiter suffers is bounded by c*AgingStep.
	// Default 100ms.
	AgingStep time.Duration
	// Watchdog is the maximum time one invocation may hold the gate
	// before it is presumed wedged and force-released. 0 disables the
	// watchdog.
	Watchdog time.Duration
	// RetryAfterFloor is the minimum RetryAfter attached to backlog- and
	// estimate-based sheds. Before any hold completes the backlog
	// estimator reads zero, and a zero RetryAfter tells every shed
	// client to retry immediately — a thundering herd exactly when the
	// gate is saturated. Default 1ms; negative disables the floor.
	// Token-refill estimates (quota sheds) are exact and not floored.
	RetryAfterFloor time.Duration
	// OnStall, when non-nil, is called (outside the gate's lock) after
	// every watchdog force-release with the wedged holder's tenant and
	// hold duration — the hook the observer records degradation
	// instants through.
	OnStall func(tenant string, held time.Duration)
}

func (o TieredOptions) withDefaults() TieredOptions {
	if o.AgingStep <= 0 {
		o.AgingStep = 100 * time.Millisecond
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 1
	}
	if o.RetryAfterFloor == 0 {
		o.RetryAfterFloor = time.Millisecond
	}
	return o
}

// AdmissionStats is a snapshot of the tiered controller's counters and
// queue gauges. Counters are cumulative since Configure; queue depths
// are instantaneous (stale the moment they are read).
type AdmissionStats struct {
	// Admitted counts grants per class.
	Admitted [NumClasses]uint64
	// ShedQuota, ShedQueueFull and ShedDeadline count rejections by
	// reason.
	ShedQuota, ShedQueueFull, ShedDeadline uint64
	// AgingPromotions counts grants in which aging let a waiter beat a
	// nominally more urgent class that was still queued.
	AgingPromotions uint64
	// WatchdogStalls counts watchdog force-releases.
	WatchdogStalls uint64
	// LateReleases counts releases that arrived after the watchdog had
	// already revoked the ticket (the wedged holder eventually woke).
	LateReleases uint64
	// QueueDepth is the current number of waiters per class.
	QueueDepth [NumClasses]int
	// AvgHold is the smoothed gate hold time the controller uses for
	// wait estimates.
	AvgHold time.Duration
}

// Shed returns the total rejections across all reasons.
func (s AdmissionStats) Shed() uint64 {
	return s.ShedQuota + s.ShedQueueFull + s.ShedDeadline
}

// bucket is one tenant's token bucket. Guarded by Admission.mu.
type bucket struct {
	tokens      float64
	rate, burst float64
	last        time.Time
}

func (b *bucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

func (b *bucket) take(now time.Time) bool {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// timeToToken estimates when the bucket next holds a whole token.
func (b *bucket) timeToToken() time.Duration {
	if b.rate <= 0 {
		return 0
	}
	need := 1 - b.tokens
	if need <= 0 {
		return 0
	}
	return time.Duration(need / b.rate * float64(time.Second))
}

// tenantQuota is a per-tenant rate override.
type tenantQuota struct{ rate, burst float64 }

// tieredWaiter is one parked request in a class queue. The granting
// side fills ticket (or shed) under Admission.mu before closing grant.
type tieredWaiter struct {
	grant  chan struct{}
	ticket uint64
	shed   *ErrOverloaded
	class  Class
	tenant string
	enq    time.Time
	budget time.Duration
	cancel context.CancelFunc
}

// tieredHolder tracks the invocation currently holding the gate under
// a tiered grant.
type tieredHolder struct {
	ticket uint64
	start  time.Time
	tenant string
	cancel context.CancelFunc
	timer  *time.Timer
}

// tiered is the controller state hanging off an Admission once
// Configure enables it. All fields are guarded by Admission.mu.
type tiered struct {
	opts      TieredOptions
	queues    [NumClasses][]*tieredWaiter
	buckets   map[string]*bucket
	overrides map[string]tenantQuota
	ticketSeq uint64
	holder    tieredHolder
	holderOn  bool
	revoked   map[uint64]struct{}
	avgHoldNs float64

	admitted                               [NumClasses]uint64
	shedQuota, shedQueueFull, shedDeadline uint64
	agingPromotions                        uint64
	watchdogStalls                         uint64
	lateReleases                           uint64
}

// Configure enables the tiered admission controller on this gate.
// It must be called before the gate is in use (typically right after
// constructing the scheduler); calling it on a live gate panics.
func (a *Admission) Configure(opts TieredOptions) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.busy || len(a.queue) > 0 {
		panic("core: Admission.Configure on a gate in use")
	}
	a.t = &tiered{
		opts:      opts.withDefaults(),
		buckets:   map[string]*bucket{},
		overrides: map[string]tenantQuota{},
		revoked:   map[uint64]struct{}{},
	}
}

// Tiered reports whether the tiered controller is enabled.
func (a *Admission) Tiered() bool {
	return a.t != nil
}

// WatchdogEnabled reports whether a hold-time watchdog is armed.
func (a *Admission) WatchdogEnabled() bool {
	return a.t != nil && a.t.opts.Watchdog > 0
}

// SetTenantQuota overrides the default token-bucket rate for one
// tenant (rate in admissions/second; burst is the bucket depth,
// defaulted like TieredOptions.TenantBurst). rate <= 0 exempts the
// tenant from quota enforcement entirely.
func (a *Admission) SetTenantQuota(tenant string, rate, burst float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.t == nil {
		return
	}
	if burst <= 0 {
		burst = 1
	}
	a.t.overrides[tenant] = tenantQuota{rate: rate, burst: burst}
	delete(a.t.buckets, tenant) // rebuild at next arrival with the new rate
}

// bucketFor returns the tenant's token bucket, or nil when the tenant
// is unlimited. Caller holds a.mu.
func (t *tiered) bucketFor(tenant string, now time.Time) *bucket {
	rate, burst := t.opts.TenantRate, t.opts.TenantBurst
	if o, ok := t.overrides[tenant]; ok {
		rate, burst = o.rate, o.burst
	}
	if rate <= 0 {
		return nil
	}
	b := t.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: burst, rate: rate, burst: burst, last: now}
		t.buckets[tenant] = b
	}
	return b
}

// estimatedWaitLocked is the gate's backlog estimate: the smoothed hold
// time times the number of invocations ahead (waiters plus the current
// holder). Zero until the first release seeds the estimator.
func (a *Admission) estimatedWaitLocked() time.Duration {
	t := a.t
	if t.avgHoldNs <= 0 {
		return 0
	}
	ahead := 0
	for c := range t.queues {
		ahead += len(t.queues[c])
	}
	ahead += len(a.queue)
	if a.busy {
		ahead++
	}
	return time.Duration(t.avgHoldNs * float64(ahead))
}

// recordHoldLocked folds one completed clean hold into the EWMA
// estimator.
func (t *tiered) recordHoldLocked(h time.Duration) {
	if h < 0 {
		return
	}
	if t.avgHoldNs == 0 {
		t.avgHoldNs = float64(h)
		return
	}
	const alpha = 0.2
	t.avgHoldNs = (1-alpha)*t.avgHoldNs + alpha*float64(h)
}

// recordRevokedHoldLocked folds a watchdog-revoked hold into the EWMA
// at half the clean-hold weight. A revoked hold's duration is bounded
// by the watchdog, not by the work it did, so a stall burst folded in
// at full weight would drag the backlog estimate toward the watchdog
// bound and keep overestimating waits long after the burst ends — but
// ignoring stalls entirely would leave the estimator blind to a gate
// that really is being held that long.
func (t *tiered) recordRevokedHoldLocked(h time.Duration) {
	if h < 0 {
		return
	}
	if t.avgHoldNs == 0 {
		t.avgHoldNs = float64(h)
		return
	}
	const alpha = 0.1 // half of recordHoldLocked's 0.2
	t.avgHoldNs = (1-alpha)*t.avgHoldNs + alpha*float64(h)
}

// floorRetry applies RetryAfterFloor to an estimate-based RetryAfter.
func (t *tiered) floorRetry(d time.Duration) time.Duration {
	if f := t.opts.RetryAfterFloor; f > 0 && d < f {
		return f
	}
	return d
}

// grantLocked installs a new holder and arms the watchdog. Caller
// holds a.mu and has already set a.busy.
func (a *Admission) grantLocked(tenant string, cancel context.CancelFunc, now time.Time) uint64 {
	t := a.t
	t.ticketSeq++
	tk := t.ticketSeq
	t.holderOn = true
	t.holder = tieredHolder{ticket: tk, start: now, tenant: tenant, cancel: cancel}
	if t.opts.Watchdog > 0 {
		t.holder.timer = time.AfterFunc(t.opts.Watchdog, func() { a.watchdogFire(tk) })
	}
	return tk
}

// AcquireTiered admits the caller through the tiered controller:
// quota, deadline-feasibility and queue-bound checks happen
// immediately (a rejection returns *ErrOverloaded and touches nothing
// else); otherwise the caller parks in its class queue until granted
// by effective priority (class minus aging credit) or its context is
// cancelled. cancel, when non-nil, is the revocation hook the watchdog
// uses to cancel the holder's context on force-release; pass the
// CancelFunc of the ctx the holder will watch.
//
// On success the returned ticket must be passed to ReleaseTiered.
// On a gate that was never Configure()d it falls back to the legacy
// FIFO Acquire and returns ticket 0 (ReleaseTiered(0) releases it).
func (a *Admission) AcquireTiered(ctx context.Context, req AdmitRequest, cancel context.CancelFunc) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if a.t == nil {
		return 0, a.Acquire(ctx)
	}
	req.Class = req.Class.clamp()
	now := time.Now()
	a.mu.Lock()
	t := a.t

	// Per-tenant quota: shed excess arrival rate at the door, before
	// any queueing, so one chatty tenant cannot occupy queue slots.
	if b := t.bucketFor(req.Tenant, now); b != nil && !b.take(now) {
		t.shedQuota++
		retry := b.timeToToken()
		a.mu.Unlock()
		return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedTenantQuota, RetryAfter: retry}
	}

	// Deadline feasibility: if the backlog already exceeds the
	// caller's budget, admission would only waste a slot on an
	// invocation that misses its deadline anyway.
	if req.DeadlineBudget > 0 {
		if est := a.estimatedWaitLocked(); est > req.DeadlineBudget {
			t.shedDeadline++
			retry := t.floorRetry(est)
			a.mu.Unlock()
			return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedDeadline, RetryAfter: retry}
		}
	}

	if !a.busy {
		a.busy = true
		t.admitted[req.Class]++
		tk := a.grantLocked(req.Tenant, cancel, now)
		a.mu.Unlock()
		return tk, nil
	}

	// Bounded class queue: full means shed now rather than queue
	// forever. RetryAfter is the backlog-drain estimate.
	if t.opts.QueueDepth > 0 && len(t.queues[req.Class]) >= t.opts.QueueDepth {
		t.shedQueueFull++
		retry := t.floorRetry(a.estimatedWaitLocked())
		a.mu.Unlock()
		return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedQueueFull, RetryAfter: retry}
	}

	w := &tieredWaiter{
		grant:  make(chan struct{}),
		class:  req.Class,
		tenant: req.Tenant,
		enq:    now,
		budget: req.DeadlineBudget,
		cancel: cancel,
	}
	t.queues[req.Class] = append(t.queues[req.Class], w)
	a.mu.Unlock()

	select {
	case <-w.grant:
		if w.shed != nil {
			return 0, w.shed
		}
		return w.ticket, nil
	case <-ctx.Done():
		a.mu.Lock()
		// The grant is filled and closed under a.mu, so holding it makes
		// the race determinate: either we were already granted (or shed)
		// and must act on it, or we are still queued and can leave.
		select {
		case <-w.grant:
			if w.shed != nil {
				a.mu.Unlock()
				return 0, w.shed
			}
			// Granted while cancelling: pass the gate straight on. The
			// ~0ns pass-on is not a real hold — recording it would drag
			// the EWMA toward zero and understate the backlog.
			a.releaseTieredLocked(w.ticket, time.Now(), false)
			a.mu.Unlock()
		default:
			q := t.queues[w.class]
			for i, c := range q {
				if c == w {
					copy(q[i:], q[i+1:])
					q[len(q)-1] = nil
					t.queues[w.class] = q[:len(q)-1]
					break
				}
			}
			a.mu.Unlock()
		}
		return 0, ctx.Err()
	}
}

// ReleaseTiered releases a hold granted by AcquireTiered. Releasing a
// ticket the watchdog already revoked is a recorded no-op (the wedged
// holder finally woke); releasing any other ticket that does not hold
// the gate panics. Ticket 0 releases a legacy-FIFO fallback grant.
func (a *Admission) ReleaseTiered(ticket uint64) {
	if a.t == nil || ticket == 0 {
		a.Release()
		return
	}
	a.mu.Lock()
	a.releaseTieredLocked(ticket, time.Now(), true)
	a.mu.Unlock()
}

// releaseTieredLocked is ReleaseTiered under a.mu. record=false skips
// the EWMA update for releases that are not representative holds (a
// grant passed straight on by a cancelling waiter).
func (a *Admission) releaseTieredLocked(ticket uint64, now time.Time, record bool) {
	t := a.t
	if _, ok := t.revoked[ticket]; ok {
		delete(t.revoked, ticket)
		t.lateReleases++
		return
	}
	if !t.holderOn || t.holder.ticket != ticket {
		panic("core: Admission.ReleaseTiered without holding the gate")
	}
	if t.holder.timer != nil {
		t.holder.timer.Stop()
	}
	if record {
		t.recordHoldLocked(now.Sub(t.holder.start))
	}
	t.holderOn = false
	// Serve any legacy-FIFO waiters first (mixed use is rare but legal:
	// the legacy queue predates class accounting, so it keeps strict
	// arrival order ahead of the classed queues).
	if len(a.queue) > 0 {
		grant := a.queue[0]
		a.queue = a.queue[1:]
		close(grant)
		return
	}
	a.handoffLocked(now)
}

// handoffLocked grants the gate to the waiter with the best effective
// priority — nominal class minus one level per AgingStep waited, FIFO
// within a class — shedding queued waiters whose deadline budget
// expired while they waited. When no waiter remains the gate goes
// free. Caller holds a.mu; a.busy is true and there is no holder.
func (a *Admission) handoffLocked(now time.Time) {
	t := a.t
	aging := float64(t.opts.AgingStep)
	for {
		best := -1
		var bestEff float64
		var bestEnq time.Time
		for c := 0; c < NumClasses; c++ {
			q := t.queues[c]
			if len(q) == 0 {
				continue
			}
			// Within a class the head waited longest, so it strictly
			// dominates the rest of its queue; compare heads only.
			w := q[0]
			eff := float64(c) - float64(now.Sub(w.enq))/aging
			if best == -1 || eff < bestEff || (eff == bestEff && w.enq.Before(bestEnq)) {
				best, bestEff, bestEnq = c, eff, w.enq
			}
		}
		if best == -1 {
			a.busy = false
			return
		}
		q := t.queues[best]
		w := q[0]
		q[0] = nil
		t.queues[best] = q[1:]

		if w.budget > 0 && now.Sub(w.enq) > w.budget {
			// The budget burned away in the queue: shed at grant time
			// instead of wasting the slot on a guaranteed deadline miss.
			t.shedDeadline++
			w.shed = &ErrOverloaded{Tenant: w.tenant, Class: w.class, Reason: ShedDeadline,
				RetryAfter: t.floorRetry(a.estimatedWaitLocked())}
			close(w.grant)
			continue
		}
		if w.class > ClassInteractive {
			// Did aging let this waiter beat a nominally more urgent
			// class that is still queued?
			for c := ClassInteractive; c < w.class; c++ {
				if len(t.queues[c]) > 0 {
					t.agingPromotions++
					break
				}
			}
		}
		t.admitted[w.class]++
		w.ticket = a.grantLocked(w.tenant, w.cancel, now)
		close(w.grant)
		return
	}
}

// watchdogFire runs when a holder's watchdog timer expires: if the
// same ticket still holds the gate, the holder is presumed wedged —
// its context is cancelled, the ticket is marked revoked (so its
// eventual ReleaseTiered is a recorded no-op), and the gate is handed
// to the next waiter so the node keeps serving.
//
// Force-release assumes a cancelled holder stops driving the engine;
// the scheduler checks for revocation at its interruption points and
// returns ErrAdmissionRevoked. Size the Watchdog bound well above any
// legitimate hold time.
func (a *Admission) watchdogFire(ticket uint64) {
	a.mu.Lock()
	t := a.t
	if t == nil || !t.holderOn || t.holder.ticket != ticket {
		a.mu.Unlock()
		return
	}
	held := time.Since(t.holder.start)
	tenant := t.holder.tenant
	onStall := t.opts.OnStall
	cancel := t.holder.cancel
	t.watchdogStalls++
	t.revoked[ticket] = struct{}{}
	t.recordRevokedHoldLocked(held)
	t.holderOn = false
	if len(a.queue) > 0 {
		grant := a.queue[0]
		a.queue = a.queue[1:]
		close(grant)
	} else {
		a.handoffLocked(time.Now())
	}
	a.mu.Unlock()
	if onStall != nil {
		onStall(tenant, held)
	}
	if cancel != nil {
		// Cancel only after the stall is recorded: a holder parked on
		// its context wakes here, observes the revocation and stands
		// down, and its caller must find the stall already recorded.
		cancel()
	}
}

// Revoked reports whether the watchdog force-released the ticket. The
// scheduler consults it at interruption points before touching the
// engine again.
func (a *Admission) Revoked(ticket uint64) bool {
	if a.t == nil || ticket == 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.t.revoked[ticket]
	return ok
}

// QueueDepths returns the instantaneous number of waiters per class
// (all zero for a legacy gate, whose queue is classless).
func (a *Admission) QueueDepths() [NumClasses]int {
	var out [NumClasses]int
	if a.t == nil {
		return out
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for c := range a.t.queues {
		out[c] = len(a.t.queues[c])
	}
	return out
}

// TieredStats snapshots the controller's counters and gauges;
// ok=false when the gate runs the legacy FIFO path.
func (a *Admission) TieredStats() (stats AdmissionStats, ok bool) {
	if a.t == nil {
		return AdmissionStats{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.t
	stats = AdmissionStats{
		Admitted:        t.admitted,
		ShedQuota:       t.shedQuota,
		ShedQueueFull:   t.shedQueueFull,
		ShedDeadline:    t.shedDeadline,
		AgingPromotions: t.agingPromotions,
		WatchdogStalls:  t.watchdogStalls,
		LateReleases:    t.lateReleases,
		AvgHold:         time.Duration(t.avgHoldNs),
	}
	for c := range t.queues {
		stats.QueueDepth[c] = len(t.queues[c])
	}
	return stats, true
}
