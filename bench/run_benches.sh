#!/usr/bin/env bash
# Runs the google-benchmark targets and records their JSON output as
# BENCH_<name>.json at the repository root: absolute numbers from one host,
# kept as documentation.  Changes are judged by scripts/compare_bench.py,
# which runs both sides in alternation and reads none of these files.
#
# Usage: bench/run_benches.sh [--smoke] [build-dir] [extra google-benchmark args...]
# The build directory defaults to <repo>/build and must already contain the
# bench binaries (cmake --build <build-dir>).
#
# --smoke runs every suite for a single short iteration and writes the
# JSON under <build-dir>/bench/smoke/ instead of the repository root, so a
# CI pass can prove the binaries run without clobbering recorded numbers.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    shift
fi

BUILD_DIR="${1:-$ROOT/build}"
shift || true

# The google-benchmark suites (the remaining bench_* binaries are
# experiment tables with their own output formats).
GBENCH_TARGETS=(bench_throughput bench_collapsed bench_observe bench_meanfield bench_service bench_scenarios bench_adaptive)

# Check every target up front and report the complete list of missing
# binaries in one message, instead of failing one target at a time.
missing=()
for name in "${GBENCH_TARGETS[@]}"; do
    bin="$BUILD_DIR/bench/$name"
    if [[ ! -x "$bin" ]]; then
        missing+=("$bin")
    fi
done
if (( ${#missing[@]} > 0 )); then
    echo "error: missing google-benchmark binaries (build them first with" >&2
    echo "       'cmake --build $BUILD_DIR'):" >&2
    printf '  %s\n' "${missing[@]}" >&2
    exit 1
fi

OUT_DIR="$ROOT"
EXTRA_ARGS=()
if (( SMOKE )); then
    OUT_DIR="$BUILD_DIR/bench/smoke"
    mkdir -p "$OUT_DIR"
    EXTRA_ARGS=(--benchmark_min_time=0.01)
fi

for name in "${GBENCH_TARGETS[@]}"; do
    bin="$BUILD_DIR/bench/$name"
    out="$OUT_DIR/BENCH_${name}.json"
    echo "running $name -> ${out#"$ROOT"/}"
    "$bin" --benchmark_format=json "${EXTRA_ARGS[@]}" "$@" > "$out"
done
