#!/usr/bin/env bash
# Builds the tree under ThreadSanitizer (the tsan CMake preset) and runs the
# tests that actually spin up worker threads — the parallel-engine unit tests,
# the serial-vs-parallel determinism suite, and the parallel checkpoint
# round-trip (save at N threads, restore at 1 and N) — plus a multi-threaded
# smoke drive of the perf harness with per-shard trace/metrics buffers
# attached.
# Any data-race report fails the run.  TSan-clean is a merge gate for changes
# touching sim/parallel_runner, the sharded transport, or the per-shard obs
# buffers (see docs/ARCHITECTURE.md, "Deterministic parallel execution").
#
# Scope note: the rest of the suite is single-threaded by construction, so
# running all of it under TSan buys nothing but wall clock; ASan+UBSan cover
# it via tools/sanitize_check.sh.
#
# Usage: tools/tsan_check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" \
  --target test_parallel_runner test_determinism test_ckpt_parallel \
  test_chaos_fuzz perf_core

# The threaded tests: engine unit tests + serial-vs-parallel determinism
# (1/2/4/8 worker threads, with and without a FaultPlan, traced variant) +
# the parallel checkpoint resume suite (src/ckpt under real worker threads).
# The arena runs on one thread and is covered by ASan+UBSan instead.
ctest --test-dir build-tsan -R '^(parallel_runner|determinism|ckpt_parallel)$' \
  --output-on-failure "$@"

# A short traced chaos run through the real transport under TSan: the smoke
# bench runs event_churn_parallel at 4 threads, and chaos_fuzz drives the
# fault-injected overlay.
ctest --test-dir build-tsan -R '^chaos_fuzz$' --output-on-failure "$@"
./build-tsan/bench/perf_core --smoke --threads=4 \
  --out=build-tsan/BENCH_core_tsan.json \
  --trace=build-tsan/perf_core_tsan.trace.json \
  --metrics=build-tsan/perf_core_tsan.metrics.csv

echo "tsan_check: ThreadSanitizer clean"
