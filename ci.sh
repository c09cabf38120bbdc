#!/usr/bin/env bash
# Local CI entry point — the same matrix .github/workflows/ci.yml runs.
#
#   ./ci.sh            full matrix: release, asan-ubsan, hardened, tsan, lint,
#                      astlint, tidy, units, telemetry, trace, chaos, sweep
#   ./ci.sh release    one leg by name
#
# Every leg must pass for the gate to be green. The sanitizer and hardened
# presets build with -Werror and run the full test suite with the runtime
# invariant auditor enabled (TFC_AUDIT=ON); see docs/correctness.md.
set -euo pipefail
cd "$(dirname "$0")"

run_preset() {
  local preset="$1"
  echo "=== [${preset}] configure + build + test ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}"
}

leg_release()    { run_preset release; }
leg_asan_ubsan() { run_preset asan-ubsan; }
leg_hardened()   { run_preset hardened; }
# When the astlint engine is available, the AST-precise rules own
# bare-assert (src/), hot-io, and recorder-hot; lint.py stands those down
# (--ast-owned) so a site is never double-reported. Without libclang, lint.py
# runs all of its regex rules as the fallback.
leg_lint() {
  echo "=== [lint] tools/lint.py ==="
  if python3 tools/astlint.py --probe >/dev/null 2>&1; then
    python3 tools/lint.py --ast-owned
  else
    python3 tools/lint.py
  fi
}

# AST determinism analyzer (tools/astlint.py): suppression-policy selftest
# always runs; the libclang battery (fixture goldens + zero unsuppressed
# findings over src/) skips with a warning where libclang is absent unless
# TFC_ASTLINT_REQUIRE=1 (set in the CI job, which installs a pinned
# libclang) turns a skip into a failure.
leg_astlint() {
  echo "=== [astlint] tools/astlint.py ==="
  python3 tools/astlint.py --selftest
  if ! python3 tools/astlint.py --probe; then
    if [[ "${TFC_ASTLINT_REQUIRE:-0}" == "1" ]]; then
      echo "astlint: engine required (TFC_ASTLINT_REQUIRE=1) but unavailable" >&2
      exit 1
    fi
    echo "astlint: libclang unavailable — skipping AST battery (lint.py regex rules remain in force)" >&2
    return 0
  fi
  for fixture in tests/astlint/fixtures/*.cc; do
    python3 tools/astlint.py --fixture "${fixture}" \
        --check-golden "${fixture%.cc}.expected"
  done
  if [[ ! -f build/compile_commands.json ]]; then
    cmake --preset release
  fi
  python3 tools/astlint.py --build-dir build
}

# ThreadSanitizer leg: the tsan preset's ctest filter covers the concurrent
# surface — the multi-instance (two Networks from two threads) regression
# tests, the supervised sweep identity tests, chaos replay, and
# determinism. Any data race on a hidden process-wide cache fails this leg.
leg_tsan() {
  run_preset tsan
}
leg_tidy()       { echo "=== [tidy] tools/tidy.sh ==="; bash tools/tidy.sh build; }

# Units leg: the dimension-safety gate (docs/correctness.md "Units").
# (1) Negative-compile battery — each banned cross-dimension conversion must
#     be rejected, and the control case must compile (same cases ctest runs
#     as WILL_FAIL entries, checked here without needing a configured build).
# (2) The lint.py units rule (raw unit-suffixed declarations).
# (3) clang-tidy narrowing profile over src/{net,tfc,transport} — skips with
#     a notice when clang-tidy is absent, like leg_tidy.
leg_units() {
  echo "=== [units] negative-compile battery ==="
  local src=tests/units_compile_fail/compile_fail.cc
  local cxx="${CXX:-g++}"
  "${cxx}" -std=c++20 -I. -fsyntax-only "${src}"
  echo "units: control case compiles"
  local case
  for case in BYTES_PLUS_TIME TOKENS_TO_BYTES BYTES_NARROWING; do
    if "${cxx}" -std=c++20 -I. -fsyntax-only "-DCASE_${case}=1" "${src}" 2>/dev/null; then
      echo "units: CASE_${case} compiled but must be rejected" >&2
      return 1
    fi
    echo "units: CASE_${case} rejected (expected)"
  done
  echo "=== [units] lint units rule ==="
  python3 tools/lint.py
  echo "=== [units] clang-tidy narrowing profile ==="
  bash tools/tidy_units.sh build
}

# Telemetry-enabled incast smoke on the paper's Fig. 4 testbed topology:
# runs tfcsim with --telemetry-dir and validates the emitted run directory
# against the documented schema (docs/observability.md).
leg_telemetry() {
  echo "=== [telemetry] tfcsim incast smoke + schema check ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/telemetry-smoke
  rm -rf "${dir}"
  ./build/examples/tfcsim --workload=incast --protocol=tfc --topology=testbed \
      --senders=8 --block_kb=64 --rounds=5 \
      --telemetry-dir="${dir}" --telemetry-interval=500
  # Decode the binary spill back to JSONL, then validate both (the schema
  # checker cross-checks converted line count against the spill's records).
  ./build/examples/tfcsim --convert="${dir}"
  python3 tools/telemetry_schema.py "${dir}"
  # The run must actually contain the series the figures are built from.
  python3 - "${dir}" <<'EOF'
import json, sys
names = {json.loads(l)["name"] for l in open(sys.argv[1] + "/metrics.jsonl")}
want_prefixes = ("port.", "tfc.", "flow.")
for p in want_prefixes:
    assert any(n.startswith(p) for n in names), f"no {p}* series recorded"
summary = json.load(open(sys.argv[1] + "/summary.json"))
assert any("block_fct" in k for k in summary["histograms"]), "no FCT histogram"
print(f"telemetry smoke: {len(names)} series OK")
EOF
}

# Flight-recorder leg (docs/observability.md "Flight recorder"):
# (1) arming the ring must not perturb the simulation — the telemetry spill
#     and summary of an armed run are byte-identical to a trace-off run;
# (2) a forced audit trip post-mortem-dumps the ring to flight.tfct, and two
#     identical runs produce byte-identical dumps;
# (3) --export-trace round-trips the dump into Perfetto JSON + a per-flow
#     timeline, and every artifact validates against the documented schema.
# CI uploads build/trace-smoke as the workflow's post-mortem artifact.
leg_trace() {
  echo "=== [trace] flight recorder: passivity + post-mortem + export ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/trace-smoke
  rm -rf "${dir}"
  mkdir -p "${dir}"
  local common=(--workload=incast --protocol=tfc --topology=testbed
                --senders=8 --block_kb=64 --rounds=5 --seed=5)

  echo "--- [trace] armed ring leaves outputs byte-identical ---"
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/off"
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/armed" \
      --trace-ring=65536
  cmp "${dir}/off/metrics.tfcb" "${dir}/armed/metrics.tfcb"
  cmp "${dir}/off/summary.json" "${dir}/armed/summary.json"
  echo "trace: off vs armed byte-identical"

  echo "--- [trace] forced audit trip dumps deterministically ---"
  local rc=0
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/trip1" \
      --trace-ring=16384 --force-audit-trip=3000 >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -ne 0 ]] || { echo "trace: forced trip did not abort" >&2; return 1; }
  [[ -s "${dir}/trip1/flight.tfct" ]] || {
    echo "trace: no post-mortem dump written" >&2; return 1; }
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/trip2" \
      --trace-ring=16384 --force-audit-trip=3000 >/dev/null 2>&1 || true
  cmp "${dir}/trip1/flight.tfct" "${dir}/trip2/flight.tfct"
  echo "trace: post-mortem dumps byte-identical across runs"

  echo "--- [trace] export + schema validation ---"
  ./build/examples/tfcsim --export-trace="${dir}/armed"
  ./build/examples/tfcsim --export-trace="${dir}/trip1"
  python3 tools/telemetry_schema.py "${dir}/armed"
  python3 tools/telemetry_schema.py --flight "${dir}/trip1"
  grep -q '"ph":"X"' "${dir}/armed/trace.perfetto.json"
  grep -q '=== flow ' "${dir}/armed/flows.txt"
  echo "trace: export round-trip validates"
}

# Chaos smoke under ASan: a handful of seeded fault schedules on the Fig. 4
# testbed via tfcsim --fault-spec, plus the chaos_test harness gtest filter
# that replays one full schedule bit-identically (docs/robustness.md). The
# full 20-seed sweep runs in the asan-ubsan/hardened ctest legs; this leg is
# the fast end-to-end check that the CLI path and injector survive sanitizers.
leg_chaos() {
  echo "=== [chaos] seeded fault-injection smoke (ASan) ==="
  cmake --preset asan-ubsan
  cmake --build build-asan -j "$(nproc)" --target tfcsim chaos_test
  for seed in 11 12 13; do
    echo "--- chaos seed ${seed} ---"
    ./build-asan/examples/tfcsim --workload=incast --protocol=tfc \
        --topology=testbed --senders=6 --block_kb=64 --rounds=3 \
        --seed="${seed}" \
        --fault-spec="drop=0.005,ge=0.01/0.3/0.5,flap=5ms/300us,wipe=10ms,start=1ms,seed=${seed}"
  done
  ./build-asan/tests/chaos_test \
      --gtest_filter='ChaosTest.DifferentSeedsProduceDifferentSchedules'
}

# Supervised-sweep crash drill (docs/robustness.md "Supervised sweeps"):
# (1) a sweep with one force-tripped run must complete every other run,
#     write a partial sweep.json naming the failure (with the salvaged
#     post-mortem flight.tfct), and exit nonzero;
# (2) --resume must re-execute only the crashed run and go green;
# (3) the recovered sweep must be byte-identical, run for run, to three
#     standalone single runs (--sweep=1, no supervisor) with the same seeds —
#     supervision and resumption never change what a run computes.
# CI uploads build/sweep-smoke as the workflow's post-mortem artifact.
leg_sweep() {
  echo "=== [sweep] supervised sweep: crash isolation + resume + identity ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/sweep-smoke
  rm -rf "${dir}"
  local run_flags=(--workload=incast --protocol=tfc --topology=testbed
                   --senders=6 --block_kb=64 --rounds=3 --trace-ring=16384)
  local common=("${run_flags[@]}" --seed=9 --sweep=3)

  echo "--- [sweep] one tripped run fails alone, siblings complete ---"
  local rc=0
  ./build/examples/tfcsim "${common[@]}" --jobs=3 \
      --telemetry-dir="${dir}/supervised" \
      --force-audit-trip=3000 --trip-run=1 || rc=$?
  [[ "${rc}" -ne 0 ]] || { echo "sweep: tripped sweep exited 0" >&2; return 1; }
  [[ -s "${dir}/supervised/sweep.json" ]] || {
    echo "sweep: no partial sweep.json after the crash" >&2; return 1; }
  grep -q '"status": "failed"' "${dir}/supervised/sweep.json"
  grep -q '"salvaged": \["flight.tfct"\]' "${dir}/supervised/sweep.json"
  [[ -s "${dir}/supervised/run-0001/flight.tfct" ]] || {
    echo "sweep: crashed run's post-mortem was not salvaged" >&2; return 1; }
  python3 tools/telemetry_schema.py --sweep "${dir}/supervised"
  echo "sweep: partial sweep.json validates, post-mortem salvaged"

  echo "--- [sweep] --resume re-executes only the crashed run ---"
  rm -f "${dir}/supervised/run-0001/flight.tfct"
  ./build/examples/tfcsim "${common[@]}" --jobs=3 \
      --telemetry-dir="${dir}/supervised" --resume | tee "${dir}/resume.log"
  [[ "$(grep -c 'skipped-cached' "${dir}/resume.log")" -eq 2 ]] || {
    echo "sweep: resume did not skip the two completed runs" >&2; return 1; }
  grep -q '"status": "ok"' "${dir}/supervised/sweep.json"
  python3 tools/telemetry_schema.py --sweep "${dir}/supervised"
  echo "sweep: resume completed only the missing run"

  echo "--- [sweep] recovered sweep == standalone single runs ---"
  # Standalone runs get the sweep's per-run seed and its default watchdog.
  local i
  for i in 0 1 2; do
    ./build/examples/tfcsim "${run_flags[@]}" --seed=$((9 + i)) --sweep=1 \
        --watchdog=5 --telemetry-dir="${dir}/clean/run-000${i}" >/dev/null
  done
  local run
  for run in run-0000 run-0001 run-0002; do
    cmp "${dir}/supervised/${run}/metrics.tfcb" "${dir}/clean/${run}/metrics.tfcb"
    cmp "${dir}/supervised/${run}/summary.json" "${dir}/clean/${run}/summary.json"
    cmp "${dir}/supervised/${run}/flight.tfct" "${dir}/clean/${run}/flight.tfct"
  done
  echo "sweep: supervised+resumed outputs byte-identical to standalone runs"
}

case "${1:-all}" in
  release)    leg_release ;;
  asan-ubsan) leg_asan_ubsan ;;
  hardened)   leg_hardened ;;
  tsan)       leg_tsan ;;
  lint)       leg_lint ;;
  astlint)    leg_astlint ;;
  tidy)       leg_tidy ;;
  units)      leg_units ;;
  telemetry)  leg_telemetry ;;
  trace)      leg_trace ;;
  chaos)      leg_chaos ;;
  sweep)      leg_sweep ;;
  all)
    leg_release
    leg_asan_ubsan
    leg_hardened
    leg_tsan
    leg_lint
    leg_astlint
    leg_tidy
    leg_units
    leg_telemetry
    leg_trace
    leg_chaos
    leg_sweep
    echo "=== ci.sh: all legs green ==="
    ;;
  *)
    echo "usage: $0 [release|asan-ubsan|hardened|tsan|lint|astlint|tidy|units|telemetry|trace|chaos|sweep|all]" >&2
    exit 2
    ;;
esac
