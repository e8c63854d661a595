#!/usr/bin/env bash
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
#
# CI gate: configure with warnings-as-errors, build everything, run the unit
# tests, and smoke-run the entropy-engine micro bench when google-benchmark
# is available. Run from anywhere; builds into <repo>/build-check.
#
#   --slow   additionally register and run the `slow`-labeled figure-bench
#            ctest entries (>= 10 s/eps budgets). The default lane excludes
#            them so it stays fast.
#   --tsan   additionally build <repo>/build-tsan with ThreadSanitizer and
#            run the concurrency suites (parallel_test: ParallelFor, forked
#            engines, full parallel pipeline; pli_cache_test: the shared
#            concurrent cache's mixed-traffic stress; obs_test: concurrent
#            span/metric emission into one sink; serve_test: 8 query
#            threads racing a snapshot Swap) under it. The default lane is
#            unchanged.
#   --asan   additionally build <repo>/build-asan with AddressSanitizer +
#            UBSan and run the full unit suite under it (same -LE slow
#            selection as the default lane).

set -euo pipefail

slow=0
tsan=0
asan=0
for arg in "$@"; do
  case "${arg}" in
    --slow) slow=1 ;;
    --tsan) tsan=1 ;;
    --asan) asan=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-check"
jobs="$(nproc 2>/dev/null || echo 2)"

slow_opt="OFF"
if [[ "${slow}" -eq 1 ]]; then slow_opt="ON"; fi

cmake -B "${build_dir}" -S "${repo_root}" -DMAIMON_WERROR=ON \
      -DMAIMON_SLOW_BENCH_TESTS="${slow_opt}"
cmake --build "${build_dir}" -j "${jobs}"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -LE slow

if [[ "${slow}" -eq 1 ]]; then
  echo "--- slow lane: figure benches at >= 10 s/eps budgets ---"
  ctest --test-dir "${build_dir}" --output-on-failure -L slow
fi

if [[ "${tsan}" -eq 1 ]]; then
  echo "--- tsan lane: concurrency suites under ThreadSanitizer ---"
  tsan_dir="${repo_root}/build-tsan"
  # Benches and gbench are irrelevant here; keep the instrumented build
  # small and the lane fast.
  cmake -B "${tsan_dir}" -S "${repo_root}" -DMAIMON_TSAN=ON \
        -DMAIMON_WITH_GBENCH=OFF
  cmake --build "${tsan_dir}" -j "${jobs}" --target parallel_test \
        --target pli_cache_test --target obs_test --target serve_test
  ctest --test-dir "${tsan_dir}" --output-on-failure \
        -R '^(parallel_test|pli_cache_test|obs_test|serve_test)$'
fi

if [[ "${asan}" -eq 1 ]]; then
  echo "--- asan lane: unit suites under AddressSanitizer + UBSan ---"
  asan_dir="${repo_root}/build-asan"
  # Mirrors the tsan plumbing: a dedicated instrumented tree, no gbench.
  # Unlike tsan (which only needs the concurrency suite), ASan+UBSan earns
  # its keep on every unit suite, so the whole tier-1 selection runs.
  cmake -B "${asan_dir}" -S "${repo_root}" -DMAIMON_ASAN=ON \
        -DMAIMON_WITH_GBENCH=OFF
  cmake --build "${asan_dir}" -j "${jobs}"
  ctest --test-dir "${asan_dir}" --output-on-failure -j "${jobs}" -LE slow
fi

# The committed figure snapshots (bench-smoke outputs) must stay parseable
# JSONL with non-empty rows and unique row identities — a bad merge or a
# bench output-format drift fails here, not when someone plots them. The
# same tool compares fresh smoke runs against these baselines in CI
# (scripts/bench_trend.py without --check-baselines).
if command -v python3 >/dev/null 2>&1; then
  echo "--- BENCH snapshots parse (bench_trend.py --check-baselines) ---"
  python3 "${repo_root}/scripts/bench_trend.py" --check-baselines \
          "${repo_root}/BENCH_fig13.json" "${repo_root}/BENCH_fig14.json" \
          "${repo_root}/BENCH_fig15.json" "${repo_root}/BENCH_serve.json" \
          "${repo_root}/BENCH_store.json"
else
  echo "--- python3 absent: BENCH snapshot parse check skipped"
fi

# storectl round trip: pack a store (budgeted Nursery mine) and inspect it
# back. Exercises the Writer -> MappedStore path on a real binary artifact,
# not just the unit fixtures.
echo "--- smoke: storectl pack + inspect ---"
storectl_out="${build_dir}/check_smoke.maimon"
"${build_dir}/storectl" pack --out="${storectl_out}" --budget=5
"${build_dir}/storectl" inspect "${storectl_out}"
rm -f "${storectl_out}"
# Malformed numeric flags exit 2 before anything is mined or written: never
# read as their numeric prefix, as 0 (an unbounded budget) or as a wrapped
# count. The figure harnesses share storectl's parsers; bench_fig10_nursery
# stands in for them (it has no --eps, so that flag exits 2 as unknown).
for bad in --eps=abc --eps=0.3x --budget=xyz --max-schemas=-1; do
  code=0
  "${build_dir}/storectl" pack --out="${storectl_out}" "${bad}" \
    2>/dev/null || code=$?
  if [[ ${code} -ne 2 || -e "${storectl_out}" ]]; then
    echo "storectl pack ${bad}: exit ${code}, expected 2 and no file" >&2
    exit 1
  fi
  code=0
  "${build_dir}/bench_fig10_nursery" "${bad}" >/dev/null 2>&1 || code=$?
  if [[ ${code} -ne 2 ]]; then
    echo "bench_fig10_nursery ${bad}: exit ${code}, expected 2" >&2
    exit 1
  fi
done

if [[ -x "${build_dir}/bench_entropy_engine" ]]; then
  echo "--- smoke: bench_entropy_engine ---"
  # Plain-double min_time parses on every google-benchmark version (the
  # "0.01x1" iteration syntax only exists from 1.8).
  "${build_dir}/bench_entropy_engine" --benchmark_min_time=0.01
else
  echo "--- bench_entropy_engine not built (google-benchmark absent): skipped"
fi

echo "check.sh: all green"
