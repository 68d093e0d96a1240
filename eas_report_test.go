package eas

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

type traceCall struct {
	k Kernel
	n int
}

// reportTrace is a fixed mixed trace: first touches that profile,
// replays, periodic re-profiles (ReprofileEvery=3) and small-N
// CPU-only calls, over a compute-bound and a memory-bound kernel.
func reportTrace(smallN int) []traceCall {
	compute := computeKernel("trace-compute", nil)
	mem := memKernel(nil)
	mem.Name = "trace-mem"
	var trace []traceCall
	for i := 0; i < 8; i++ {
		trace = append(trace,
			traceCall{compute, 200000 + 1000*i},
			traceCall{mem, 150000},
			traceCall{compute, smallN})
	}
	return trace
}

// runTrace replays the trace serially on a fresh runtime, each call on
// its own new goroutine (perCall) or all on one long-lived goroutine,
// and returns the reports with their wall-clock stamps cleared. Every
// Report goes back to the pool (Config.Reuse) before the next call, so
// the next invocation fills in a used one.
func runTrace(t *testing.T, perCall bool) []Report {
	t.Helper()
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric: EDP, Model: sharedModel(t), ReprofileEvery: 3, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	trace := reportTrace(rt.platform.inner.GPUProfileSize() / 2)
	out := make([]Report, 0, len(trace))
	var failed error
	call := func(k Kernel, n int) {
		rep, err := rt.ParallelFor(k, n)
		if err != nil {
			failed = err
			return
		}
		r := *rep
		r.Started, r.Finished = time.Time{}, time.Time{}
		out = append(out, r)
		rt.ReleaseReport(rep)
	}
	if perCall {
		for _, c := range trace {
			done := make(chan struct{})
			go func() {
				defer close(done)
				call(c.k, c.n)
			}()
			<-done
			if failed != nil {
				t.Fatal(failed)
			}
		}
		return out
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range trace {
			if call(c.k, c.n); failed != nil {
				return
			}
		}
	}()
	<-done
	if failed != nil {
		t.Fatal(failed)
	}
	return out
}

// The scheduler threads one per-invocation report down its call chain
// by pointer. Whether the caller's stack starts small (a goroutine per
// request) or is long grown, the same trace must give the same
// reports, field for field.
func TestReportsIdenticalAcrossCallerGoroutines(t *testing.T) {
	perCall := runTrace(t, true)
	longLived := runTrace(t, false)
	if len(perCall) != len(longLived) {
		t.Fatalf("got %d and %d reports", len(perCall), len(longLived))
	}
	var profiled, small int
	for i := range perCall {
		a, b := perCall[i], longLived[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("call %d: goroutine per call %+v\nlong-lived goroutine %+v", i, a, b)
		}
		if a.Profiled {
			profiled++
		}
		if a.GPUItems == 0 && a.CPUItems > 0 && a.Category == "" {
			small++
		}
	}
	if profiled == 0 || small == 0 {
		t.Fatalf("trace not mixed: %d profiled, %d CPU-only calls", profiled, small)
	}
}

// assertPlain checks that a plain invocation reports none of the
// per-invocation flags an earlier invocation may have set.
func assertPlain(t *testing.T, after string, rep *Report) {
	t.Helper()
	if rep.Profiled || rep.ProfileSteps != 0 || rep.Category != "" || rep.FastPath || rep.Coalesced ||
		rep.ProfileQuarantined || rep.ProfileSanitized || rep.GPUBusyFallback ||
		rep.FallbackReason != FallbackNone || rep.FallbackError != nil ||
		rep.Retries != 0 || rep.ReexecutedItems != 0 || rep.MeterSamplesRejected != 0 {
		t.Errorf("plain invocation after a %s invocation carries flags: %+v", after, rep)
	}
}

// A plain invocation right after a profiled, fast-path, coalesced,
// quarantined or breaker-open one reports clean flags: nothing of the
// flagged invocation's report carries over into the next, even with
// reports recycled through the pool.
func TestPlainInvocationAfterFlaggedReportsClean(t *testing.T) {
	plainAfter := func(t *testing.T, rt *Runtime, plain Kernel, n int, after string, flagged func(*Report) bool, run func() (*Report, error)) {
		t.Helper()
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !flagged(rep) {
			t.Fatalf("setup: the %s invocation was not flagged: %+v", after, rep)
		}
		rt.ReleaseReport(rep)
		rep, err = rt.ParallelFor(plain, n)
		if err != nil {
			t.Fatal(err)
		}
		assertPlain(t, after, rep)
		rt.ReleaseReport(rep)
	}
	newRT := func(t *testing.T, cfg Config) (*Runtime, Kernel) {
		t.Helper()
		cfg.Metric, cfg.Model, cfg.Reuse = EDP, sharedModel(t), true
		rt, err := NewRuntime(DesktopPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Close() })
		plain := computeKernel("plain", nil)
		// Warm the plain kernel's table entry, so its calls replay.
		if _, err := rt.ParallelFor(plain, 200000); err != nil {
			t.Fatal(err)
		}
		return rt, plain
	}

	t.Run("profiled", func(t *testing.T) {
		rt, plain := newRT(t, Config{})
		k := computeKernel("first-touch", nil)
		plainAfter(t, rt, plain, 200000, "profiled",
			func(r *Report) bool { return r.Profiled && r.Category != "" },
			func() (*Report, error) { return rt.ParallelFor(k, 200000) })
	})

	t.Run("fast-path", func(t *testing.T) {
		rt, plain := newRT(t, Config{
			ReprofileEvery: 2,
			Decision:       DecisionPolicy{TableTTL: time.Hour, MinConfidence: 1},
		})
		// The plain kernel's 2nd call would take the fast path, so
		// advance it to an ordinal that replays.
		if _, err := rt.ParallelFor(plain, 200000); err != nil {
			t.Fatal(err)
		}
		k := computeKernel("fast", nil)
		if _, err := rt.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
		plainAfter(t, rt, plain, 200000, "fast-path",
			func(r *Report) bool { return r.FastPath },
			func() (*Report, error) { return rt.ParallelFor(k, 200000) })
	})

	t.Run("coalesced", func(t *testing.T) {
		rt, plain := newRT(t, Config{Decision: DecisionPolicy{Coalesce: true}})
		// Which callers join the leader's flight depends on scheduling;
		// try fresh kernels until one batch coalesces.
		var coalesced *Report
		for try := 0; try < 20 && coalesced == nil; try++ {
			k := computeKernel(fmt.Sprintf("coalesce-%d", try), nil)
			var (
				wg    sync.WaitGroup
				mu    sync.Mutex
				start = make(chan struct{})
			)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					rep, err := rt.ParallelFor(k, 120000)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if rep.Coalesced && coalesced == nil {
						coalesced = rep
					} else {
						rt.ReleaseReport(rep)
					}
				}()
			}
			close(start)
			wg.Wait()
		}
		if coalesced == nil {
			t.Fatal("no invocation coalesced in 20 batches of 8")
		}
		plainAfter(t, rt, plain, 200000, "coalesced",
			func(r *Report) bool { return r.Coalesced },
			func() (*Report, error) { return coalesced, nil })
	})

	t.Run("quarantined", func(t *testing.T) {
		plan := NewFaultPlan(7)
		rt, plain := newRT(t, Config{
			ReprofileEvery: 2,
			Robustness:     Robustness{ValidateProfiles: true},
			Faults:         plan,
		})
		if _, err := rt.ParallelFor(plain, 200000); err != nil { // ordinal 2 re-profiles
			t.Fatal(err)
		}
		k := computeKernel("quarantine", nil)
		if _, err := rt.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
		plainAfter(t, rt, plain, 200000, "quarantined",
			func(r *Report) bool { return r.ProfileQuarantined },
			func() (*Report, error) {
				plan.CorruptHWC(4) // the re-profile due now reads NaN counters
				return rt.ParallelFor(k, 200000)
			})
	})

	t.Run("breaker-open", func(t *testing.T) {
		plan := NewFaultPlan(2)
		rt, plain := newRT(t, Config{
			BreakerThreshold:  1,
			BreakerProbeAfter: 1000,
			GPURetry:          RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
			Faults:            plan,
		})
		k := computeKernel("breaker", nil)
		plan.GPUBusyFor(1)
		if _, err := rt.ParallelFor(k, 200000); err != nil { // falls back: the breaker opens
			t.Fatal(err)
		}
		// The open breaker suppresses every GPU-worthy call, so the
		// plain call is a small-N one, which never reaches the breaker.
		plainAfter(t, rt, plain, rt.platform.inner.GPUProfileSize()/2, "breaker-open",
			func(r *Report) bool { return r.FallbackReason == FallbackBreakerOpen },
			func() (*Report, error) { return rt.ParallelFor(k, 200000) })
	})
}

// A pooled Report goes back to the pool when the invocation fails in
// its functional phase (Config.Reuse): later invocations reuse it.
func TestFailedInvocationReturnsPooledReport(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	rt, err := NewRuntime(DesktopPlatform(), Config{Metric: EDP, Model: sharedModel(t), Reuse: true, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	k := computeKernel("panicky", func(int) { panic("boom") })
	for i := 0; i < 16; i++ {
		_, err := rt.ParallelFor(k, 200000)
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("invocation %d: err = %v, want *KernelPanicError", i, err)
		}
	}
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^eas_pool_reuse_total (\S+)$`).FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatalf("eas_pool_reuse_total not exported:\n%s", buf.String())
	}
	if reused, _ := strconv.ParseFloat(string(m[1]), 64); reused == 0 {
		t.Error("no Report was reused across 16 failed invocations: failed invocations drop their pooled Report")
	}
}
