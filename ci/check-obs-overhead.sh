#!/usr/bin/env bash
# check-obs-overhead.sh — fail the build if disabled observability ever
# costs anything on the scheduling hot path, or if the armed flight
# recorder exceeds its per-event allocation budget, or if exporting the
# Chrome trace starts allocating per span.
#
# Four layers of defence:
#   1. TestNilObserverZeroAlloc pins the nil-observer steady-state path
#      to zero heap allocations per invocation.
#   2. BenchmarkParallelForObserverNil's allocs/op is compared against
#      the committed baseline (ci/obs-overhead-baseline.txt); any
#      regression past the baseline fails. Allocation counts are exact
#      and machine-independent, unlike ns/op, so this is CI-stable.
#   3. BenchmarkFlightRecord pins the enabled flight recorder to the
#      flight_allocs_per_event budget: recording must stay ring-writes
#      only, never allocation per event.
#   4. BenchmarkChromeTraceExport renders a full default ring (8192
#      decision-path spans) and is pinned to export_allocs_per_op: the
#      ring snapshot and the encoder's one chunk buffer, whatever the
#      number of spans.
#
# The enabled-observer benchmark runs too and its overhead is printed
# for the log, but only the *disabled* path and the recorder's event
# budget are gated — observability is opt-in, its cost is allowed to
# evolve — and the export on allocations only.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline_file=ci/obs-overhead-baseline.txt
baseline=$(awk '/^nil_allocs_per_op/ {print $2}' "$baseline_file")
if [[ -z "$baseline" ]]; then
    echo "error: no nil_allocs_per_op entry in $baseline_file" >&2
    exit 1
fi
flight_budget=$(awk '/^flight_allocs_per_event/ {print $2}' "$baseline_file")
if [[ -z "$flight_budget" ]]; then
    echo "error: no flight_allocs_per_event entry in $baseline_file" >&2
    exit 1
fi

export_budget=$(awk '/^export_allocs_per_op/ {print $2}' "$baseline_file")
if [[ -z "$export_budget" ]]; then
    echo "error: no export_allocs_per_op entry in $baseline_file" >&2
    exit 1
fi

echo "== pinned zero-alloc test =="
go test ./internal/core -run 'TestNilObserverZeroAlloc' -count=1 -v

echo "== observer overhead benchmarks =="
out=$(go test ./internal/core -run '^$' -bench 'BenchmarkParallelForObserver' \
    -benchtime=500x -benchmem -count=1)
echo "$out"

nil_allocs=$(echo "$out" | awk '/^BenchmarkParallelForObserverNil/ {print $(NF-1)}')
if [[ -z "$nil_allocs" ]]; then
    echo "error: BenchmarkParallelForObserverNil produced no allocs/op figure" >&2
    exit 1
fi

if (( nil_allocs > baseline )); then
    echo "FAIL: nil-observer path allocates $nil_allocs allocs/op, baseline is $baseline" >&2
    echo "(observability must stay free when disabled; see internal/core/obs_overhead_test.go)" >&2
    exit 1
fi
echo "OK: nil-observer path at $nil_allocs allocs/op (baseline $baseline)"

echo "== flight recorder event budget =="
flight_out=$(go test ./internal/obs -run '^$' -bench 'BenchmarkFlightRecord' \
    -benchtime=10000x -benchmem -count=1)
echo "$flight_out"

flight_allocs=$(echo "$flight_out" | awk '/^BenchmarkFlightRecord/ {print $(NF-1)}')
if [[ -z "$flight_allocs" ]]; then
    echo "error: BenchmarkFlightRecord produced no allocs/op figure" >&2
    exit 1
fi
if (( flight_allocs > flight_budget )); then
    echo "FAIL: armed flight recorder allocates $flight_allocs allocs/event, budget is $flight_budget" >&2
    echo "(event recording must stay preallocated-ring writes; see internal/obs/flight.go)" >&2
    exit 1
fi
echo "OK: flight recorder at $flight_allocs allocs/event (budget $flight_budget)"

echo "== Chrome trace export budget =="
export_out=$(go test ./internal/obs -run '^$' -bench 'BenchmarkChromeTraceExport' \
    -benchtime=20x -benchmem -count=1)
echo "$export_out"

export_allocs=$(echo "$export_out" | awk '/^BenchmarkChromeTraceExport/ {print $(NF-1)}')
if [[ -z "$export_allocs" ]]; then
    echo "error: BenchmarkChromeTraceExport produced no allocs/op figure" >&2
    exit 1
fi
if (( export_allocs > export_budget )); then
    echo "FAIL: exporting 8192 spans allocates $export_allocs times per export, budget is $export_budget" >&2
    echo "(the encoder appends into one reused buffer; see internal/obs/chrometrace.go)" >&2
    exit 1
fi
echo "OK: Chrome trace export at $export_allocs allocs/op (budget $export_budget)"
