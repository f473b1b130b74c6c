#!/usr/bin/env bash
# Tier-1 verification: configure and build with warnings as errors
# (-DRPOL_WERROR=ON: -Wall -Wextra -Werror), and run the test suite in
# nine passes — (1) pinned to a single compute thread, (2) RPOL_THREADS
# unset (pool defaults to hardware_concurrency), (3) RPOL_SHARDS=3 (the
# sharded pool manager resolves a multi-shard default; §6 says shard layout
# can never change results), (4) RPOL_TRACE=1, (5) RPOL_LIVE=1 (background
# flusher + flight recorder armed; the determinism suite proves bitwise
# identity), (6) a bounded-memory pass with RPOL_CKPT_BUDGET squeezed to a
# few KiB so the checkpoint stores spill and evict constantly, (7) a
# -DRPOL_SIMD=OFF build tree that compiles the scalar (non-AVX2) branches
# and runs the tensor, sim and LSH suites on them, then (8) and (9) under
# AddressSanitizer and UndefinedBehaviorSanitizer in separate build trees. The pool benchmark (perfbench/) is built alongside the main
# tree but not run.
# All passes must be green: the runtime's determinism contract says neither
# thread count, shard count, tracing, nor the checkpoint-store budget can
# ever change results, and the fault-injection/fuzz suites push hostile
# bytes through every decoder, so memory or UB findings anywhere are real
# bugs, not flakiness.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
# Set RPOL_SKIP_SANITIZERS=1 to run only the seven fast passes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DRPOL_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The pool benchmark (perfbench/) is a standalone build of src/ plus its own
# pool_bench program. Building it here, without running it, turns a removed
# or renamed public name that pool_bench uses into a tier-1 failure.
echo "==> tier-1 build: perfbench (built, not run)"
cmake -B "${BUILD_DIR}-perfbench" -S perfbench
cmake --build "${BUILD_DIR}-perfbench" -j "$(nproc)"

echo "==> tier-1 pass 1/9: RPOL_THREADS=1"
(cd "$BUILD_DIR" && RPOL_THREADS=1 ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 2/9: RPOL_THREADS unset (default thread count)"
(cd "$BUILD_DIR" && env -u RPOL_THREADS ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 3/9: RPOL_SHARDS=3 (sharded manager default; shard"
echo "    layout must never change results)"
(cd "$BUILD_DIR" && RPOL_SHARDS=3 ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 4/9: RPOL_TRACE=1 (tracing on; results must not change)"
(cd "$BUILD_DIR" && RPOL_TRACE=1 ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 pass 5/9: RPOL_LIVE=1 (live flusher + flight recorder armed;"
echo "    snapshots stream to a scratch file, results must not change)"
(cd "$BUILD_DIR" && RPOL_LIVE=1 RPOL_LIVE_INTERVAL_MS=50 \
  RPOL_LIVE_FILE=tier1_live_scratch.jsonl \
  RPOL_FLIGHT_FILE=tier1_flight_scratch.jsonl \
  ctest --output-on-failure -j "$(nproc)")
rm -f "$BUILD_DIR/tier1_live_scratch.jsonl" "$BUILD_DIR/tier1_flight_scratch.jsonl"

echo "==> tier-1 pass 6/9: RPOL_CKPT_BUDGET=4096 (hot cache squeezed to one"
echo "    checkpoint; streaming suites must stay bitwise identical)"
(cd "$BUILD_DIR" && RPOL_CKPT_BUDGET=4096 ctest --output-on-failure \
  -R 'core_ckptstore_test|runtime_determinism_test|core_commitment_golden_test|core_protocol_test' \
  -j "$(nproc)")

# The scalar branches (#else of the AVX2+FMA guards in tensor/rng.cpp,
# tensor/layout.cpp and lsh/pstable.cpp) are what a pre-AVX2 host runs; they
# must compile warning-free and pass the suites that pin them to the same
# bits as their oracles.
echo "==> tier-1 pass 7/9: RPOL_SIMD=OFF (scalar branches: tensor, sim, lsh)"
cmake -B "${BUILD_DIR}-nosimd" -S . -DRPOL_SIMD=OFF -DRPOL_WERROR=ON
cmake --build "${BUILD_DIR}-nosimd" -j "$(nproc)" \
  --target tensor_test sim_test lsh_test
(cd "${BUILD_DIR}-nosimd" && ctest --output-on-failure \
  -R '^(tensor_test|sim_test|lsh_test)$' -j "$(nproc)")

# Advisory regression check against the committed benchmark baseline: the
# cost-model rows are deterministic, so only genuine protocol-cost changes
# (or a stale baseline — regenerate with tools/make_bench_baseline.sh) move
# them, the crypto/commitment harness covers the hashing hot path, the
# blocked-layout conv harness covers the direct-vs-fallback speedup rows,
# and the streaming harness covers the bounded-memory checkpoint pipeline
# (its core.stream.* rows carry peak RSS, which --mem-tolerance compares),
# and bench_pool_scale covers the sharded manager's submissions/sec and
# peak-RSS envelope at >= 1k workers (pool.scale.* rows).
# Advisory because wall-clock rows vary across machines. --mem-tolerance adds
# an advisory peak-RSS comparison on records where both sides carry the
# memory column (old baselines without it are simply not compared).
if [[ -f BENCH_baseline.json ]]; then
  echo "==> advisory: rpol bench-diff vs BENCH_baseline.json (does not gate)"
  rm -f "$BUILD_DIR/BENCH_current.json"
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_table3_overhead >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --crypto-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --layout-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_micro --stream-only >/dev/null)
  (cd "$BUILD_DIR" && RPOL_BENCH_FILE=BENCH_current.json \
    ./bench/bench_pool_scale >/dev/null)
  "$BUILD_DIR/tools/rpol" bench-diff BENCH_baseline.json \
    "$BUILD_DIR/BENCH_current.json" --tolerance 0.35 --mem-tolerance 0.50 \
    || echo "==> advisory bench-diff flagged deltas (non-fatal)"
fi

if [[ "${RPOL_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "==> tier-1 OK: seven fast configurations green (sanitizers skipped)"
  exit 0
fi

echo "==> tier-1 pass 8/9: AddressSanitizer (RPOL_SANITIZE=address)"
cmake -B "${BUILD_DIR}-asan" -S . -DRPOL_SANITIZE=address
cmake --build "${BUILD_DIR}-asan" -j "$(nproc)"
(cd "${BUILD_DIR}-asan" && ctest --output-on-failure -j "$(nproc)")

# RPOL_SANITIZE=undefined also enables -fsanitize=float-cast-overflow, which
# -fsanitize=undefined leaves out (CMakeLists.txt).
echo "==> tier-1 pass 9/9: UndefinedBehaviorSanitizer (RPOL_SANITIZE=undefined)"
cmake -B "${BUILD_DIR}-ubsan" -S . -DRPOL_SANITIZE=undefined
cmake --build "${BUILD_DIR}-ubsan" -j "$(nproc)"
(cd "${BUILD_DIR}-ubsan" && ctest --output-on-failure -j "$(nproc)")

echo "==> tier-1 OK: all nine configurations green"
