#!/usr/bin/env bash
# The full pre-merge gate, in one command:
#
#   1. plain build + full ctest suite            (functional correctness)
#   2. perf-gate message self-test               (scripts/compare_bench.py
#                                                 against synthetic suites:
#                                                 the debug refusal, drift
#                                                 cap, and regression verdict
#                                                 each name the offending row
#                                                 and both medians)
#   3. bench/run_benches.sh --smoke              (every gbench suite runs;
#                                                 JSON goes to the build
#                                                 tree, recorded BENCH_*.json
#                                                 at the root are untouched)
#   4. trace_run --profile smoke                 (a short collapsed threads=4
#                                                 profile plus an adaptive
#                                                 profile with its JSONL
#                                                 switch events; all
#                                                 artifacts validated by
#                                                 scripts/check_telemetry.py)
#   5. scripts/check_service.py                  (service smoke: trace_run
#                                                 SIGINT checkpointing, 1000
#                                                 concurrent daemon sessions,
#                                                 suspend/evict/resume and
#                                                 SIGTERM drain bit-identity)
#   6. bench/run_benches.sh --compare            (perf gate: bench_throughput,
#                                                 bench_collapsed,
#                                                 bench_observe — including
#                                                 the telemetry overhead rows
#                                                 — and bench_adaptive's 2^20
#                                                 rows within 15% of the
#                                                 committed release baselines)
#   7. scripts/check.sh                          (asan+ubsan build + ctest)
#   8. scripts/check.sh --tsan                   (ThreadSanitizer build over
#                                                 the parallel-engine,
#                                                 registry and wire-server
#                                                 tests)
#
# Usage: scripts/ci.sh [build-dir]
#   build-dir  defaults to <repo>/build; the sanitizer stages always use
#              their own <repo>/build-check{,-tsan} trees (see check.sh).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"

echo "ci.sh: [1/8] plain build + tests"
cmake -B "$BUILD_DIR" -S "$ROOT"
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "ci.sh: [2/8] perf-gate message self-test"
# The gate's refusals must carry enough evidence to act on — the offending
# benchmark row and both suite medians — so regressions in the messages
# themselves are caught here, against synthetic suite JSONs (no benchmark
# binaries involved; see scripts/compare_bench.py).
GATE_TMP="$(mktemp -d)"
trap 'rm -rf "$GATE_TMP"' EXIT
write_suite() { # <path> <build-type> <timeA> <timeB> <timeC>
    cat > "$1" <<JSON
{"context": {"popproto_build_type": "$2"},
 "benchmarks": [
   {"name": "BM_GateSelfTest_A", "run_type": "iteration", "real_time": $3},
   {"name": "BM_GateSelfTest_B", "run_type": "iteration", "real_time": $4},
   {"name": "BM_GateSelfTest_C", "run_type": "iteration", "real_time": $5}]}
JSON
}
write_suite "$GATE_TMP/release_base.json" release 100 100 100
write_suite "$GATE_TMP/debug_base.json"   debug   100 100 100
write_suite "$GATE_TMP/steady.json"       release 101  99 100
write_suite "$GATE_TMP/drifted.json"      release 200 200 210
write_suite "$GATE_TMP/regressed.json"    release 101  99 300
expect_gate_failure() { # <label> <baseline> <fresh> <required grep...>
    local label="$1" base="$2" fresh="$3"
    shift 3
    local out
    if out="$(python3 "$ROOT/scripts/compare_bench.py" "$base" "$fresh" 2>&1)"; then
        echo "ci.sh: FAIL: perf gate accepted the $label case" >&2
        exit 1
    fi
    for needle in "$@"; do
        if ! grep -qF -- "$needle" <<< "$out"; then
            echo "ci.sh: FAIL: $label verdict does not mention '$needle':" >&2
            echo "$out" >&2
            exit 1
        fi
    done
}
# A clean pass stays a pass.
python3 "$ROOT/scripts/compare_bench.py" "$GATE_TMP/release_base.json" \
    "$GATE_TMP/steady.json" > /dev/null
# The debug refusal names both sides' build types.
expect_gate_failure "debug-baseline" "$GATE_TMP/debug_base.json" \
    "$GATE_TMP/steady.json" "debug_base.json" "'debug'" "'release'"
# The drift cap names both suite medians and the worst-moving row.
expect_gate_failure "drift-cap" "$GATE_TMP/release_base.json" \
    "$GATE_TMP/drifted.json" "baseline 100.0" "fresh 200.0" "BM_GateSelfTest_C"
# The regression verdict names the offending row with both its times and
# the suite medians.
expect_gate_failure "regression" "$GATE_TMP/release_base.json" \
    "$GATE_TMP/regressed.json" "BM_GateSelfTest_C: 100.0 -> 300.0" \
    "baseline 100.0" "fresh 101.0"
rm -rf "$GATE_TMP"
trap - EXIT
echo "ci.sh: perf-gate messages name rows and medians in all three refusals"

echo "ci.sh: [3/8] benchmark smoke pass"
"$ROOT/bench/run_benches.sh" --smoke "$BUILD_DIR"

echo "ci.sh: [4/8] telemetry profile smoke"
# A collapsed threads=4 profile exercises every probe family — phase
# timers, shard busy/wait, super-step accounting — and the checker holds
# both exporter artifacts to the DESIGN.md schema.  n = 2^20 so super-steps
# (~0.63 sqrt(n) = 645 pairs) clear the pooled-dispatch threshold
# (kMinPairsPerWorker * 4 = 256) and the shard lanes actually populate;
# the run still finishes in well under a second.  Artifacts land next to
# the bench smoke JSON, never at the repository root.
PROFILE_DIR="$BUILD_DIR/bench/smoke"
mkdir -p "$PROFILE_DIR"
"$BUILD_DIR/examples/trace_run" epidemic --n 1048576 --engine collapsed --threads 4 \
    --no-counts --profile "$PROFILE_DIR/telemetry_smoke" > /dev/null
python3 "$ROOT/scripts/check_telemetry.py" \
    "$PROFILE_DIR/telemetry_smoke.trace.json" "$PROFILE_DIR/telemetry_smoke.prom"
# The same single-seed workload under the adaptive dispatcher crosses both
# hysteresis thresholds (sparse -> dense -> sparse), so the checker can
# validate the engine_switch JSONL events, the per-engine segment
# attribution, and the adaptive Prometheus families end to end.
"$BUILD_DIR/examples/trace_run" epidemic --n 1048576 --adaptive \
    --no-counts --profile "$PROFILE_DIR/telemetry_adaptive" \
    > "$PROFILE_DIR/telemetry_adaptive.jsonl"
python3 "$ROOT/scripts/check_telemetry.py" \
    "$PROFILE_DIR/telemetry_adaptive.trace.json" \
    "$PROFILE_DIR/telemetry_adaptive.prom" \
    "$PROFILE_DIR/telemetry_adaptive.jsonl"

echo "ci.sh: [5/8] service end-to-end smoke"
# Drives the real serve_popproto/popctl/trace_run binaries over a Unix
# socket: 1000 concurrent sessions all reach terminal states, suspends
# spill and fault back bit-identically, and a SIGTERM drain + restart
# loses nothing (EXPERIMENTS.md quotes the printed throughput numbers).
python3 "$ROOT/scripts/check_service.py" "$BUILD_DIR" --sessions 1000

echo "ci.sh: [6/8] benchmark perf gate"
"$ROOT/bench/run_benches.sh" --compare "$BUILD_DIR"

echo "ci.sh: [7/8] sanitized suite"
"$ROOT/scripts/check.sh"

echo "ci.sh: [8/8] data-race gate"
"$ROOT/scripts/check.sh" --tsan

echo "ci.sh: all gates passed"
