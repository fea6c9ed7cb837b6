#!/usr/bin/env sh
# Build the full tree under a sanitizer and run the test suite.
#
#   tools/check.sh [--tsan] [extra ctest args...]
#
# Default: AddressSanitizer + UBSan in build-asan/ (any memory error or UB
# report fails the run).  With --tsan: ThreadSanitizer in build-tsan/ — the
# gate for the parallel experiment engine (src/exec, exp/runner fan-out);
# any data race fails the run.  Both use separate build directories so the
# regular `build/` tree stays untouched.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode=asan
if [ "${1:-}" = "--tsan" ]; then
    mode=tsan
    shift
fi

if [ "$mode" = "tsan" ]; then
    build_dir="$repo_root/build-tsan"
    cmake -B "$build_dir" -S "$repo_root" -DRMWP_SANITIZE_THREAD=ON
    cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"
    # Force multi-threaded execution inside every test so TSan actually sees
    # the fan-out: RMWP_JOBS=4 makes parallel_for start threads even on a
    # single-core host.
    RMWP_JOBS=4 \
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
        ctest --test-dir "$build_dir" --output-on-failure \
            -j "$(nproc 2>/dev/null || echo 4)" "$@"
else
    build_dir="$repo_root/build-asan"
    cmake -B "$build_dir" -S "$repo_root" -DRMWP_SANITIZE=ON
    cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"
    ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir "$build_dir" --output-on-failure \
            -j "$(nproc 2>/dev/null || echo 4)" "$@"

    # Serve-mode smoke under the same sanitizers: synthetic arrivals with
    # faults, shedding, checkpointing, and the runtime monitor all active.
    soak_dir=$(mktemp -d)
    "$build_dir/tools/rmwp_cli" generate-catalog --out "$soak_dir/catalog.csv" --seed 42 \
        >/dev/null
    ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        "$build_dir/tools/rmwp_cli" serve --catalog "$soak_dir/catalog.csv" \
            --arrivals 20000 --rm heuristic --predictor online \
            --fault-outage-rate 0.3 --fault-throttle-rate 0.2 \
            --decision-cost 0.5 --max-pending 8 \
            --checkpoint "$soak_dir/ckpt.txt" --checkpoint-every 10000 \
            --monitor-period 0.05 --rss-budget-mb 2048 >/dev/null
    rm -rf "$soak_dir"
    echo "serve soak smoke: OK"
fi
