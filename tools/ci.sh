#!/usr/bin/env bash
# CI entry point: build + test matrix.
#
#   tools/ci.sh            run the full matrix (Release, asan, ubsan, tsan)
#   tools/ci.sh release    run a single named configuration
#   tools/ci.sh asan
#   tools/ci.sh ubsan
#   tools/ci.sh tsan       ThreadSanitizer build + the multithreaded
#                          workloads: bench fan-out, obsreport and stackfuzz
#                          at --threads=8, a --threads byte-identity
#                          check on the bench output, the mem_test and
#                          lock_order_test stress tests, parallel_test (the
#                          kept workers), smp_test (the lanes of one Machine
#                          on 1-4 host threads) and fuzz_test (one case's
#                          stack variants on concurrent threads)
#   tools/ci.sh tidy       clang-tidy over src/ (skipped when not installed)
#   tools/ci.sh smoke      simcore_gbench smoke (BENCH_simcore.json) and the
#                          guest-ops/sec and stack-construction perf ratchet
#                          (tools/perf_ratchet.txt)
#   tools/ci.sh chaos      extended fault-injection sweep (tools/chaos.sh)
#                          against the asan and ubsan builds
#   tools/ci.sh migrate    seeded migration chaos campaigns (the six
#                          kMigrate* transport faults, failure atomicity and
#                          migrate-vs-control byte-identity) on the Release
#                          and asan builds, plus the downtime bench's JSON
#                          through bench_json_check
#   tools/ci.sh fuzz       stackfuzz campaign: 10k-run differential sweep on
#                          the Release build (every oracle dimension,
#                          including the batch-on/off byte-identity pairs on
#                          header-bit-64 cases) + regression corpus replay
#   tools/ci.sh coverage   line-coverage build + per-directory ratchet floors
#                          (tools/coverage.sh, tools/coverage_ratchet.txt)
#
# Every configuration runs the whole ctest suite, which includes the archlint
# model verification, the register-table compile-fail test, the srclint
# repo-convention checks, and a short chaos sweep; the `chaos` stage reruns
# the sweep with more campaigns per config under both sanitizers.
#
# Each stage's wall time is recorded and a summary table prints on exit.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

STAGE_SUMMARY=()

# timed <label> <command...>: run a stage and record its wall time.
timed() {
  local label="$1"
  shift
  local t0=$SECONDS
  "$@"
  STAGE_SUMMARY+=("$(printf '%-10s %5ss' "$label" $((SECONDS - t0)))")
}

print_summary() {
  local status=$?
  if ((${#STAGE_SUMMARY[@]} > 0)); then
    echo "==> stage wall-time summary"
    printf '    %s\n' "${STAGE_SUMMARY[@]}"
  fi
  return "$status"
}
trap print_summary EXIT

run_config() {
  local name="$1"
  local build_dir="$ROOT/build-ci-$name"
  shift
  echo "==> [$name] configure: $*"
  cmake -B "$build_dir" -S "$ROOT" "$@" >/dev/null
  echo "==> [$name] build"
  cmake --build "$build_dir" -j "$JOBS" >/dev/null
  echo "==> [$name] test"
  (cd "$build_dir" && ctest --output-on-failure -j "$JOBS")
  echo "==> [$name] OK"
}

run_release() {
  run_config release -DCMAKE_BUILD_TYPE=Release
}

run_asan() {
  run_config asan -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DNEVE_SANITIZE=address"
}

run_ubsan() {
  run_config ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DNEVE_SANITIZE=undefined"
}

# ThreadSanitizer over the code paths that actually run multithreaded: the
# bench harness's ParallelFor fan-out, obsreport's per-kind fan-out and the
# stackfuzz campaign, whose batches and two-candidate shrink rounds run on
# the workers ParallelFor keeps between calls, all pinned to --threads=8 so
# worker interleavings exist even on small CI machines; and parallel_test,
# which drives the kept workers from two callers at once and from nested
# calls. Also proves the --threads byte-identity contract on the bench
# output (a TSan-clean race would still be a determinism bug, and vice
# versa).
run_tsan() {
  local build_dir="$ROOT/build-ci-tsan"
  local runs="${TSAN_FUZZ_RUNS:-300}"
  echo "==> [tsan] configure + build"
  cmake -B "$build_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DNEVE_SANITIZE=thread" >/dev/null
  cmake --build "$build_dir" -j "$JOBS" --target \
    table1_micro_v83 fig2_applications smp_hackbench obsreport \
    stackfuzz mem_test lock_order_test parallel_test smp_test fuzz_test \
    >/dev/null
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"; trap - RETURN' RETURN
  echo "==> [tsan] bench fan-out at --threads=8 (+ byte-identity vs serial)"
  "$build_dir/bench/table1_micro_v83" --threads=8 >"$tmp/table1.mt.txt"
  "$build_dir/bench/table1_micro_v83" --threads=1 >"$tmp/table1.serial.txt"
  cmp "$tmp/table1.mt.txt" "$tmp/table1.serial.txt"
  "$build_dir/bench/fig2_applications" --threads=8 >/dev/null
  echo "==> [tsan] SMP engine: 4-vCPU nested guests at --threads=8 (+ byte-identity vs serial)"
  # Unlike the fan-out above (independent Machines per worker), this runs
  # vCPU lanes of ONE machine on concurrent host threads -- the SMP engine's
  # deferred-mutation merge is what TSan is pointed at here, and the cmp is
  # the determinism contract: same bytes at every --threads value.
  "$build_dir/bench/smp_hackbench" --threads=8 >"$tmp/smp.mt.txt"
  "$build_dir/bench/smp_hackbench" --threads=1 >"$tmp/smp.serial.txt"
  cmp "$tmp/smp.mt.txt" "$tmp/smp.serial.txt"
  echo "==> [tsan] obsreport run --threads=8"
  "$build_dir/tools/obsreport" run --stack=neve --threads=8 \
    --out="$tmp/obsreport.json" >/dev/null
  echo "==> [tsan] stackfuzz --threads=8 ($runs runs)"
  "$build_dir/tools/stackfuzz" --seed=20260809 --runs="$runs" --threads=8 \
    --corpus-out="$tmp/corpus" >/dev/null
  # The stress tests for the lock-free fast paths: eight threads
  # first-touching one PhysMem's page directory, and the lock-order
  # detector's per-thread edge cache. parallel_test checks the kept
  # workers; smp_test runs the vCPU lanes of one Machine on 1-4 host
  # threads, the concurrent writers of the per-CPU attribution cells;
  # fuzz_test runs one case's stack variants on concurrent threads under its
  # own assertions.
  echo "==> [tsan] mem_test + lock_order_test + parallel_test + smp_test + fuzz_test"
  "$build_dir/tests/mem_test" >/dev/null
  "$build_dir/tests/lock_order_test" >/dev/null
  "$build_dir/tests/parallel_test" >/dev/null
  "$build_dir/tests/smp_test" >/dev/null
  "$build_dir/tests/fuzz_test" >/dev/null
  echo "==> [tsan] OK"
}

# Perf + serialization smoke on the Release build: run the simulator-core
# microbenchmarks into BENCH_simcore.json, validate the JSON with the
# schema checker, and enforce the guest-ops/sec, stack-construction, nested
# hypercall and nested boot floors (tools/perf_ratchet.txt; two extra runs
# of just the ratcheted benchmarks make the check best-of-3 so one noisy run
# can't flake it).
run_smoke() {
  local build_dir="$ROOT/build-ci-release"
  echo "==> [smoke] configure + build (Release)"
  cmake -B "$build_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build_dir" -j "$JOBS" --target \
    simcore_gbench perf_ratchet bench_json_check >/dev/null
  echo "==> [smoke] simcore_gbench -> BENCH_simcore.json"
  "$build_dir/bench/simcore_gbench" --json="$ROOT/BENCH_simcore.json" \
    >/dev/null
  "$build_dir/tools/bench_json_check" "$ROOT/BENCH_simcore.json"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"; trap - RETURN' RETURN
  echo "==> [smoke] perf ratchet (best-of-3)"
  local ratcheted='GuestOpsBurst|StackConstruction'
  ratcheted+='|NestedHypercallV83($|Uncached|Observed)|NestedBootV83($|Observed)'
  "$build_dir/bench/simcore_gbench" --benchmark_filter="$ratcheted" \
    --json="$tmp/ratchet1.json" >/dev/null
  "$build_dir/bench/simcore_gbench" --benchmark_filter="$ratcheted" \
    --json="$tmp/ratchet2.json" >/dev/null
  "$build_dir/tools/perf_ratchet" "$ROOT/tools/perf_ratchet.txt" \
    "$ROOT/BENCH_simcore.json" "$tmp/ratchet1.json" "$tmp/ratchet2.json"
  echo "==> [smoke] OK"
}

# Extended chaos sweep under the sanitizers: many seeded fault campaigns per
# stack configuration, plus the zero-fault byte-identity check. The short
# (12-campaign) sweep already runs inside every configuration's ctest; this
# stage widens the seed coverage where memory and UB bugs actually surface.
run_chaos() {
  local campaigns="${CHAOS_CAMPAIGNS:-50}"
  for name in asan ubsan; do
    local build_dir="$ROOT/build-ci-$name"
    echo "==> [chaos/$name] configure + build"
    case "$name" in
      asan)  cmake -B "$build_dir" -S "$ROOT" \
               -DCMAKE_BUILD_TYPE=RelWithDebInfo \
               "-DNEVE_SANITIZE=address" >/dev/null ;;
      ubsan) cmake -B "$build_dir" -S "$ROOT" \
               -DCMAKE_BUILD_TYPE=RelWithDebInfo \
               "-DNEVE_SANITIZE=undefined" >/dev/null ;;
    esac
    cmake --build "$build_dir" -j "$JOBS" --target chaos >/dev/null
    echo "==> [chaos/$name] $campaigns campaigns per config"
    bash "$ROOT/tools/chaos.sh" "$build_dir" "$campaigns"
    echo "==> [chaos/$name] OK"
  done
}

# Migration chaos: seeded live-migration campaigns with the transport faults
# armed, on the Release build and again under ASan (rollback paths juggle
# partially-decoded images -- exactly where lifetime bugs would hide). Run 0
# of every config is the zero-fault migrate-vs-control byte-identity check;
# the campaign fails on any lost or forked VM or any end-state divergence.
# The downtime bench rides along: every cell asserts a committed fault-free
# migration, and its JSON goes through the schema checker.
run_migrate() {
  local runs="${MIGRATE_RUNS:-9}"   # per config, x5 configs => >= 40 runs
  for name in release asan; do
    local build_dir="$ROOT/build-ci-$name"
    echo "==> [migrate/$name] configure + build"
    case "$name" in
      release) cmake -B "$build_dir" -S "$ROOT" \
                 -DCMAKE_BUILD_TYPE=Release >/dev/null ;;
      asan)    cmake -B "$build_dir" -S "$ROOT" \
                 -DCMAKE_BUILD_TYPE=RelWithDebInfo \
                 "-DNEVE_SANITIZE=address" >/dev/null ;;
    esac
    cmake --build "$build_dir" -j "$JOBS" \
      --target chaos migrate_downtime bench_json_check >/dev/null
    echo "==> [migrate/$name] $runs migration campaigns per config"
    "$build_dir/tools/chaos" --mode=migrate --campaigns="$runs"
    echo "==> [migrate/$name] OK"
  done
  echo "==> [migrate] downtime bench -> BENCH_migrate.json"
  "$ROOT/build-ci-release/bench/migrate_downtime" \
    --json="$ROOT/BENCH_migrate.json" >/dev/null
  "$ROOT/build-ci-release/tools/bench_json_check" "$ROOT/BENCH_migrate.json"
  echo "==> [migrate] OK"
}

# Differential fuzzing campaign on the Release build: replay the checked-in
# regression corpus, then run a 10k-case sweep with a date-derived seed so
# successive CI runs explore different inputs while any single run stays
# exactly reproducible from the seed it prints.
run_fuzz() {
  local runs="${FUZZ_RUNS:-10000}"
  local seed="${FUZZ_SEED:-$(date -u +%Y%m%d)}"
  local build_dir="$ROOT/build-ci-release"
  echo "==> [fuzz] configure + build (Release)"
  cmake -B "$build_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build_dir" -j "$JOBS" --target stackfuzz >/dev/null
  echo "==> [fuzz] replay regression corpus"
  "$build_dir/tools/stackfuzz" --replay="$ROOT/tests/corpus" --threads="$JOBS"
  echo "==> [fuzz] determinism: report/corpus identical across --threads"
  bash "$ROOT/tools/stackfuzz.sh" "$build_dir"
  echo "==> [fuzz] campaign: seed=$seed runs=$runs"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"; trap - RETURN' RETURN
  "$build_dir/tools/stackfuzz" --seed="$seed" --runs="$runs" \
    --threads="$JOBS" --corpus-out="$tmp/corpus"
  echo "==> [fuzz] OK"
}

run_coverage() {
  bash "$ROOT/tools/coverage.sh"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [tidy] clang-tidy not installed; skipping"
    return 0
  fi
  local build_dir="$ROOT/build-ci-tidy"
  cmake -B "$build_dir" -S "$ROOT" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "==> [tidy] clang-tidy over src/"
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$build_dir" --quiet
  echo "==> [tidy] OK"
}

case "${1:-all}" in
  release)  timed release run_release ;;
  asan)     timed asan run_asan ;;
  ubsan)    timed ubsan run_ubsan ;;
  tsan)     timed tsan run_tsan ;;
  tidy)     timed tidy run_tidy ;;
  smoke)    timed smoke run_smoke ;;
  chaos)    timed chaos run_chaos ;;
  migrate)  timed migrate run_migrate ;;
  fuzz)     timed fuzz run_fuzz ;;
  coverage) timed coverage run_coverage ;;
  all)
    timed release run_release
    timed smoke run_smoke
    timed asan run_asan
    timed ubsan run_ubsan
    timed tsan run_tsan
    timed chaos run_chaos
    timed migrate run_migrate
    timed fuzz run_fuzz
    timed coverage run_coverage
    timed tidy run_tidy
    ;;
  *)
    echo "usage: $0 [all|release|asan|ubsan|tsan|tidy|smoke|chaos|migrate|fuzz|coverage]" >&2
    exit 2
    ;;
esac
