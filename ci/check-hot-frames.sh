#!/usr/bin/env bash
# check-hot-frames.sh — frame budget of the invocation hot path.
#
# A goroutine starts on a 2 KiB stack. core.growStack takes the
# invocation's one stack growth, straight to 16 KiB (see DESIGN.md,
# "Hot-path stack discipline"). The growth point is the first call in
# Runtime.ParallelForCtx (core.GrowStack), before it opens the
# observer scope, and Scheduler.ParallelForScoped for callers of the
# core scheduler; on a stack that is already grown the second call
# costs nothing. The one growth only holds while
#   - the frames above the growth point fit the starting stack, so no
#     earlier, implicit growth happens on the way down, and
#   - the frames below it fit the grown stack, so no second growth
#     happens deep in the engine.
# This script compiles the packages with -gcflags=-S, reads each
# function's frame (locals=) and argument area (args=) from the TEXT
# lines, prints every chain frame by frame and fails when a chain
# exceeds its budget. locals+args counts the argument area twice (the
# caller's frame holds it too), and every chain below a growth point
# starts at Scheduler.ParallelForScoped, which the core callers also
# count above theirs, so the sums are conservative.
set -euo pipefail
cd "$(dirname "$0")/.."

start_stack=2048  # runtime: a new goroutine's stack
grown_stack=16384 # the size growStack grows to; the per-P stack cache's largest
stack_guard=928   # runtime: stackGuard on linux/amd64 without -race
above_budget=$start_stack

root=github.com/hetsched/eas
frames=$(go build -gcflags=-S . ./internal/core ./internal/engine ./internal/obs ./internal/profile ./internal/pcu 2>&1 >/dev/null |
    awk '/ STEXT / {
        locals = "0x0"; args = "0x0"
        for (i = 2; i <= NF; i++) {
            if ($i ~ /^locals=/) locals = substr($i, 8)
            if ($i ~ /^args=/) args = substr($i, 6)
        }
        print $1, locals, args
    }')

# frame sets $locals and $args (bytes) for one function, named after
# the module path, and fails if it is missing: a renamed or inlined
# function must be renamed here too.
frame() {
    local l a
    read -r l a < <(awk -v fn="$root$1" '$1 == fn {print $2, $3; exit}' <<<"$frames") || true
    if [[ -z "${l:-}" ]]; then
        echo "error: no frame for $root$1 (renamed or inlined?)" >&2
        exit 1
    fi
    locals=$((l))
    args=$((a))
}

# chain NAME FUNC... prints a frame table and sets $total.
chain() {
    local name=$1 fn
    shift
    total=0
    printf '\n%s\n' "$name"
    printf '  %-58s %7s %6s %7s\n' frame locals args sum
    for fn in "$@"; do
        frame "$fn"
        total=$((total + locals + args))
        printf '  %-58s %7d %6d %7d\n' "eas${fn#/internal}" "$locals" "$args" "$total"
    done
}

fail=0
frame /internal/core.growStack
grow_locals=$locals

max_above=0
for c in public core observed; do
    case $c in
    public) chain "above the growth point: Runtime.ParallelForCtx" \
        '.(*Runtime).ParallelForCtx' ;;
    core) chain "above the growth point: Scheduler.ParallelFor" \
        '/internal/core.(*Scheduler).ParallelFor' \
        '/internal/core.(*Scheduler).ParallelForCtx' \
        '/internal/core.(*Scheduler).ParallelForScoped' ;;
    observed) chain "above the growth point: Scheduler.ParallelFor with an Observer" \
        '/internal/core.(*Scheduler).ParallelFor' \
        '/internal/core.(*Scheduler).ParallelForCtx' \
        '/internal/core.(*Scheduler).parallelForObserved' \
        '/internal/core.(*Scheduler).ParallelForScoped' ;;
    esac
    if ((total > above_budget)); then
        echo "FAIL: $total B above the growth point exceeds the $above_budget B starting stack" >&2
        fail=1
    fi
    ((total > max_above)) && max_above=$total
done

max_below=0
for c in scope replay profile; do
    case $c in
    scope) chain "below the growth point: opening the observer scope" \
        '.(*Runtime).beginScope' \
        '/internal/obs.(*Observer).BeginInvocation' ;;
    replay) chain "below the growth point: replayed α, tiered gate" \
        '/internal/core.(*Scheduler).ParallelForScoped' \
        '/internal/core.(*Scheduler).admit' \
        '/internal/core.(*Scheduler).parallelForTiered' \
        '/internal/core.(*Scheduler).runAdmitted' \
        '/internal/core.(*Scheduler).parallelFor' \
        '/internal/core.(*Scheduler).execute' \
        '/internal/core.(*Scheduler).retryBusy' \
        '/internal/core.(*Scheduler).execute.func1' \
        '/internal/engine.(*Engine).Run' \
        '/internal/pcu.(*PCU).Observe' \
        '/internal/pcu.PowerModel.Package' ;;
    profile) chain "below the growth point: online profiling, tiered gate" \
        '/internal/core.(*Scheduler).ParallelForScoped' \
        '/internal/core.(*Scheduler).admit' \
        '/internal/core.(*Scheduler).parallelForTiered' \
        '/internal/core.(*Scheduler).runAdmitted' \
        '/internal/core.(*Scheduler).parallelFor' \
        '/internal/core.(*Scheduler).profileDecide' \
        '/internal/core.(*Scheduler).profileSteps' \
        '/internal/core.(*Scheduler).retryBusy' \
        '/internal/core.(*Scheduler).profileSteps.func1' \
        '/internal/profile.Step' \
        '/internal/engine.(*Engine).Run' \
        '/internal/pcu.(*PCU).Observe' \
        '/internal/pcu.PowerModel.Package' ;;
    esac
    ((total > max_below)) && max_below=$total
done

printf '\ngrowStack frame %d B: ' "$grow_locals"
if ((grow_locals + stack_guard <= grown_stack / 2)); then
    echo "FAIL: fits an $((grown_stack / 2)) B stack, so a 2 KiB stack would not grow straight to $grown_stack B" >&2
    fail=1
elif ((max_above + grow_locals + stack_guard > grown_stack)); then
    echo "FAIL: with $max_above B above it needs more than $grown_stack B (a heap-allocated stack)" >&2
    fail=1
else
    echo "grows any stack below $((grown_stack / 2)) B straight to $grown_stack B"
fi
used=$((max_above + max_below + stack_guard))
printf 'deepest path: %d B above + %d B below + %d B guard = %d of %d B\n' \
    "$max_above" "$max_below" "$stack_guard" "$used" "$grown_stack"
if ((used > grown_stack)); then
    echo "FAIL: the frames below the growth point exceed the grown stack" >&2
    fail=1
fi
exit $fail
