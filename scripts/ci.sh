#!/usr/bin/env bash
# The full pre-merge gate, in one command:
#
#   1. plain build + full ctest suite            (functional correctness;
#                                                 warnings are errors)
#   2. perf-judge self-test                      (scripts/compare_bench.py's
#                                                 verdicts on synthetic
#                                                 inputs: paired gbench rows
#                                                 and 10-pair perfbench
#                                                 series)
#   3. bench/run_benches.sh --smoke              (every gbench suite runs;
#                                                 JSON goes to the build
#                                                 tree, recorded BENCH_*.json
#                                                 at the root are untouched)
#   4. trace_run --profile smoke                 (a short collapsed threads=4
#                                                 profile plus an adaptive
#                                                 profile with its JSONL
#                                                 switch events, and an
#                                                 agent-engine epidemic that
#                                                 must stop at its last
#                                                 infection; all artifacts
#                                                 validated by
#                                                 scripts/check_telemetry.py)
#   5. scripts/check_service.py                  (service smoke: trace_run
#                                                 SIGINT checkpointing, 1000
#                                                 concurrent daemon sessions,
#                                                 malformed submits refused
#                                                 by name, suspend/evict/
#                                                 resume and SIGTERM drain
#                                                 bit-identity)
#   6. scripts/compare_bench.py HEAD             (paired A/B perf judge:
#                                                 the working tree against
#                                                 HEAD, gated gbench rows
#                                                 and the BENCHMARK.json
#                                                 workloads)
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
# -Werror here only: the perf judge builds the parent commit through
# CMakeLists.txt, and a parent's warnings must not fail that build.
cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "ci.sh: [2/8] perf-judge self-test"
# The judge's verdicts and messages, on synthetic inputs (no benchmark runs):
# a row 3x slower in every round fails, named with both medians; a 3x
# outlier in one round of five passes; a row missing on one side fails;
# 10-pair perfbench series reach each verdict; a rise in `failed` fails.
python3 - "$ROOT/scripts" <<'PY'
import sys
sys.path.insert(0, sys.argv[1])
from compare_bench import judge_rows, judge_workload, verdict

def rounds(slow):
    return [({"BM_A": 100.0, "BM_B": 50.0},
             {"BM_A": 101.0, "BM_B": 150.0 if i in slow else 50.0})
            for i in range(5)]
failures = judge_rows(rounds(range(5)))[1]
assert len(failures) == 1 and "BM_B: median base 50 -> change 150" in failures[0], failures
assert judge_rows(rounds({2}))[1] == [], "a 3x outlier in one round of five must pass"
missing = rounds(())
del missing[3][1]["BM_B"]
assert judge_rows(missing)[1] == ["BM_B: missing on the change side"]

base = [100.0 + i for i in range(10)]
scaled = lambda factor: [factor * value for value in base]
wide = [60.0, 140.0] * 5
for base_series, change, held, better, expected in (
        (base, base, (100, 101), "lower", "same"),
        (base, scaled(0.7), (100, 70), "lower", "gain"),
        (base, scaled(0.7), (100, 130), "lower", "same"),  # held-out pair lost
        (base, [200.0, 200.0] + scaled(0.7)[2:], (100, 70), "lower", "unresolved"),  # 8/10
        (base, scaled(1.5), (100, 150), "lower", "worse"),
        (base, scaled(1.5), (100, 150), "higher", "gain"),
        (wide, wide, (100, 100), "lower", "unresolved"),
        (wide, [50.0] * 10, (100, 50), "lower", "same")):  # every run better
    assert verdict(base_series, change, held, better, 0.25) == expected, expected

result = lambda value, failed: {"attempted": 10, "failed": failed,
                                "metrics": {"m": {"value": value, "unit": "ms"}}}
metric = [{"name": "m", "better": "lower", "bound": 0.25}]
pairs = [(result(value, 0), result(value, 0)) for value in base + [100.0]]
assert judge_workload(pairs, metric)[1] == []
pairs[4] = (result(104.0, 0), result(104.0, 1))
assert judge_workload(pairs, metric)[1] == ["failed share rose: base 0/110 -> change 1/110"]
PY
echo "ci.sh: perf-judge verdicts and messages hold on synthetic inputs"

echo "ci.sh: [3/8] benchmark smoke pass"
"$ROOT/bench/run_benches.sh" --smoke "$BUILD_DIR"

echo "ci.sh: [4/8] telemetry profile smoke"
# A collapsed threads=4 profile exercises every probe family — phase
# timers, shard busy/wait, super-step accounting — and the checker holds
# both exporter artifacts to the DESIGN.md schema.  n = 2^20 so a
# super-step's bulk realization (T = 1.5 sqrt(n) = 1,536 interactions less
# ~4.5 events, ~1,520 deferred pairs) clears the pooled-dispatch threshold
# (kMinPairsPerWorker * 4 = 256) and the shard lanes actually populate;
# the run still finishes in well under a second.  Artifacts land next to
# the bench smoke JSON, never at the repository root.
PROFILE_DIR="$BUILD_DIR/bench/smoke"
mkdir -p "$PROFILE_DIR"
"$BUILD_DIR/examples/trace_run" epidemic --n 1048576 --engine collapsed --threads 4 \
    --no-counts --profile "$PROFILE_DIR/telemetry_smoke" > /dev/null
python3 "$ROOT/scripts/check_telemetry.py" \
    "$PROFILE_DIR/telemetry_smoke.trace.json" "$PROFILE_DIR/telemetry_smoke.prom"
# The same single-seed workload under the adaptive engine crosses the
# crossover both ways (sparse -> dense -> sparse), so the checker can
# validate the two engine_switch JSONL events (one crossover: equal enter
# and exit thresholds), the per-kind segment attribution, and the adaptive
# Prometheus families end to end.
"$BUILD_DIR/examples/trace_run" epidemic --n 1048576 --adaptive \
    --no-counts --profile "$PROFILE_DIR/telemetry_adaptive" \
    > "$PROFILE_DIR/telemetry_adaptive.jsonl"
python3 "$ROOT/scripts/check_telemetry.py" \
    "$PROFILE_DIR/telemetry_adaptive.trace.json" \
    "$PROFILE_DIR/telemetry_adaptive.prom" \
    "$PROFILE_DIR/telemetry_adaptive.jsonl"
# The same run stops at its last infection: a super-step that ran past the
# silent onset would stop later than the last output change.
python3 "$ROOT/scripts/check_telemetry.py" "$PROFILE_DIR/telemetry_adaptive.jsonl"
# The agent engine, through the real CLI, stops at its first silent
# configuration: an epidemic's last infection.
"$BUILD_DIR/examples/trace_run" epidemic --n 4096 --engine agent --no-counts \
    > "$PROFILE_DIR/agent_epidemic.jsonl"
python3 "$ROOT/scripts/check_telemetry.py" "$PROFILE_DIR/agent_epidemic.jsonl"

echo "ci.sh: [5/8] service end-to-end smoke"
# Drives the real serve_popproto/popctl/trace_run binaries over a Unix
# socket: 1000 concurrent sessions all reach terminal states, submits with
# wrapping counts or an overflowing predicate are refused by name, suspends
# spill and fault back bit-identically, and a SIGTERM drain + restart
# loses nothing (EXPERIMENTS.md quotes the printed throughput numbers).
python3 "$ROOT/scripts/check_service.py" "$BUILD_DIR" --sessions 1000

echo "ci.sh: [6/8] paired A/B perf judge"
python3 "$ROOT/scripts/compare_bench.py" HEAD "$BUILD_DIR"

echo "ci.sh: [7/8] sanitized suite"
"$ROOT/scripts/check.sh"

echo "ci.sh: [8/8] data-race gate"
"$ROOT/scripts/check.sh" --tsan

echo "ci.sh: all gates passed"
