#!/usr/bin/env bash
# Pre-merge gate for softrec. Run from anywhere; operates on the repo
# that contains this script. Stages:
#
#   1. clang-format check     (skipped if clang-format is absent)
#   2. softrec_analyze        (multi-pass static analyzer: fixture
#      self-test, then the tree gate — zero unbaselined findings)
#   3. clang-tidy             (skipped if clang-tidy is absent), then
#      cppcheck               (skipped if cppcheck is absent)
#   4. release build + tests  (-DSOFTREC_WERROR=ON), run once: the
#      configuration matrix is explicit gtest parameters
#      (tests/test_matrix.hpp), not reruns under env permutations.
#      The ServeMatrix suites run the serving contracts on every KV
#      dtype x prefill chunk {0, 3}; the ExecMatrix suites and the
#      KvEquivalence, StripLoop, ParallelDeterminism and PackedGemm
#      tests pin thread counts and SIMD backends themselves. Then the repository benchmark runner
#      (perfbench/, configured into build/perfbench) must still build
#      against the model API and pass its --self-test
#   5. checked build + tests  (-DSOFTREC_CHECKED_BUILD=ON, WERROR)
#   6. asan-ubsan build + tests (sanitizers + checked mode, WERROR),
#      plus a serve smoke: the serve_throughput bench runs end to end
#      under the sanitizers (reports go to the build dir, not the root)
#   7. tsan build + parallel-runtime tests (their 4-thread cases
#      build their own pools; of test_attention_exec only the pooled
#      cases, since a serial run cannot race; profiling enabled: test_profiler
#      exercises the counter merge;
#      test_serve exercises queue/pool shutdown ordering;
#      test_admission races concurrent reserves; test_serve_engine
#      drives the async engine's producer/consumer threads;
#      test_streaming_attention runs the online-softmax comparison
#      kernel's strips)
#   8. bench smoke: micro_kernels, micro_simd, micro_streaming,
#      serve_throughput, and the serve_load admission-regime trace at
#      a CI-sized sequence length (micro_streaming asserts that the
#      online-softmax kernel moves fewer bytes than the recomposed
#      path); SOFTREC_BENCH_DIR routes every report to the repo root,
#      each expected BENCH_*.json must exist there, and all must pass
#      tools/check_bench_json.py (micro_simd's report must carry the
#      in-process SDF overheads ls_overhead_ns_per_elem,
#      gs_overhead_ns_per_elem and ir_ns_per_row; the
#      serve_throughput smoke includes the int8-vs-f16 KV capacity A/B
#      arm and asserts its >= 1.8x ratio; the serve_load smoke includes
#      the head-of-line arm — 4k-token prompts arriving mid-decode —
#      and asserts chunked prefill's >= 3x active-stream p95 win); plus
#      negative checks that malformed SOFTREC_BENCH_SEQLEN,
#      SOFTREC_SERVE_KV_DTYPE, and SOFTREC_SERVE_PREFILL_CHUNK values
#      hard-error instead of falling back
#
# Every stage must pass; the script stops at the first failure.
# A toolchain without clang still runs stages 2 and 4-6, which are the
# load-bearing ones: the static analyzer, the warning-clean release
# build, the invariant-checked build, and the sanitized suite.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n=== ci: %s ===\n' "$*"; }

step "clang-format (check only)"
if command -v clang-format >/dev/null 2>&1; then
    git ls-files '*.cpp' '*.hpp' | xargs clang-format --dry-run -Werror
    echo "clang-format: OK"
else
    echo "clang-format not found; SKIP"
fi

step "softrec_analyze self-test (fixtures, tokenizer, SARIF, baseline)"
python3 tools/softrec_analyze --self-test

step "softrec_analyze over src/ (zero unbaselined findings)"
python3 tools/softrec_analyze --root "${ROOT}"

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset tidy >/dev/null
    python3 scripts/run_clang_tidy.py --build-dir build/tidy
else
    echo "clang-tidy not found; SKIP"
fi

step "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
    cppcheck --enable=warning,performance,portability --std=c++17 \
        --language=c++ -q --inline-suppr --error-exitcode=1 \
        --suppressions-list=tools/cppcheck_suppressions.txt \
        -I src src/
    echo "cppcheck: OK"
else
    echo "cppcheck not found; SKIP"
fi

step "release build (WERROR) + tests"
cmake --preset release -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/release -j "${JOBS}"
ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "perfbench runner build + self-test (benchmark tracks the model API)"
cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
cmake --build build/perfbench -j "${JOBS}" --target perfbench_runner
./build/perfbench/perfbench_runner --self-test >/dev/null
echo "perfbench_runner --self-test: OK"

step "checked build (WERROR) + tests"
cmake --preset checked -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/checked -j "${JOBS}"
ctest --test-dir build/checked --output-on-failure -j "${JOBS}"

step "asan-ubsan build (WERROR) + tests"
cmake --preset asan-ubsan -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/asan-ubsan -j "${JOBS}"
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --test-dir build/asan-ubsan --output-on-failure -j "${JOBS}"

step "serve smoke under asan-ubsan"
cmake --build build/asan-ubsan -j "${JOBS}" --target serve_throughput
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
SOFTREC_BENCH_DIR="${ROOT}/build/asan-ubsan/bench" \
SOFTREC_BENCH_SEQLEN=64 SOFTREC_THREADS=2 \
    ./build/asan-ubsan/bench/serve_throughput >/dev/null

step "tsan build + parallel runtime tests"
cmake --preset tsan -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/tsan -j "${JOBS}" --target \
    test_exec_context test_parallel_determinism \
    test_attention_exec test_functional_layer test_profiler \
    test_serve test_admission test_serve_engine \
    test_streaming_attention
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build/tsan --output-on-failure -j "${JOBS}" \
    -R 'test_exec_context|test_parallel_determinism|test_functional_layer|test_profiler|test_serve|test_admission|test_serve_engine|test_streaming_attention'
# A serial case starts no threads, so it cannot race: of
# test_attention_exec only the cases that run on a pool run here (the
# release and asan-ubsan stages run every case).
TSAN_OPTIONS="halt_on_error=1" \
GTEST_FILTER='*/pooled:*_pooled:DenseStrategies.ReusedWorkspaceMatchesFreshRuns' \
    ctest --test-dir build/tsan --output-on-failure -R '^test_attention_exec$'

step "serve-load smoke: admission regimes under a live trace"
cmake --build build/release -j "${JOBS}" --target serve_load
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${ROOT}" SOFTREC_THREADS=4 ./serve_load \
      >/dev/null )

step "bench smoke: BENCH JSON schema gate (reports at repo root)"
cmake --build build/release -j "${JOBS}" --target micro_kernels \
    micro_simd micro_streaming serve_throughput
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${ROOT}" \
  SOFTREC_BENCH_SEQLEN=512 SOFTREC_THREADS=4 ./micro_kernels \
      --benchmark_filter='BM_SafeSoftmax/512' >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${ROOT}" \
  SOFTREC_BENCH_SEQLEN=512 ./micro_simd >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${ROOT}" \
  SOFTREC_BENCH_SEQLEN=128 SOFTREC_THREADS=4 ./serve_throughput \
      >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${ROOT}" \
  SOFTREC_BENCH_SEQLEN=256 SOFTREC_THREADS=4 ./micro_streaming \
      >/dev/null )
for report in BENCH_micro_kernels.json BENCH_micro_simd.json \
              BENCH_micro_streaming.json \
              BENCH_serve_throughput.json BENCH_serve_load.json; do
    if [ ! -f "${ROOT}/${report}" ]; then
        echo "ci: expected bench report ${report} missing at repo root" >&2
        exit 1
    fi
done
python3 tools/check_bench_json.py \
    "${ROOT}/BENCH_micro_kernels.json" \
    "${ROOT}/BENCH_micro_simd.json" \
    "${ROOT}/BENCH_micro_streaming.json" \
    "${ROOT}/BENCH_serve_throughput.json" \
    "${ROOT}/BENCH_serve_load.json"

step "negative: malformed env knobs must hard-error, not fall back"
if SOFTREC_BENCH_SEQLEN=lots ./build/release/bench/micro_simd \
    >/dev/null 2>&1; then
    echo "ci: SOFTREC_BENCH_SEQLEN=lots did not fail" >&2
    exit 1
fi
echo "SOFTREC_BENCH_SEQLEN=lots: rejected (OK)"
if SOFTREC_BENCH_SEQLEN=32 ./build/release/bench/micro_simd \
    >/dev/null 2>&1; then
    echo "ci: SOFTREC_BENCH_SEQLEN=32 (below floor) did not fail" >&2
    exit 1
fi
echo "SOFTREC_BENCH_SEQLEN=32: rejected (OK)"
if SOFTREC_SERVE_KV_DTYPE=fp4 SOFTREC_BENCH_SEQLEN=64 \
    ./build/release/bench/serve_throughput >/dev/null 2>&1; then
    echo "ci: SOFTREC_SERVE_KV_DTYPE=fp4 did not fail" >&2
    exit 1
fi
echo "SOFTREC_SERVE_KV_DTYPE=fp4: rejected (OK)"
if SOFTREC_SERVE_PREFILL_CHUNK=weasel SOFTREC_BENCH_SEQLEN=64 \
    ./build/release/bench/serve_throughput >/dev/null 2>&1; then
    echo "ci: SOFTREC_SERVE_PREFILL_CHUNK=weasel did not fail" >&2
    exit 1
fi
echo "SOFTREC_SERVE_PREFILL_CHUNK=weasel: rejected (OK)"

printf '\n=== ci: all gates passed ===\n'
