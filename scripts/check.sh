#!/usr/bin/env bash
# Builds the tree under sanitizers in a dedicated build directory and runs
# the test suite under them.
#
# Default mode is the memory- and UB-safety gate (address+undefined over the
# full suite): run it before merging engine or observer changes.
#
# --tsan switches to the data-race gate: a ThreadSanitizer build running the
# tests that exercise the intra-run parallel machinery (the thread pool, the
# sharded collapsed engine, and the trial fan-out), the service registry's
# multi-worker paths (per-quantum metrics merge, session retirement with
# live subscribers), and the wire server's accept and connection threads.
# TSan and ASan cannot
# share a process, hence the separate mode and build directory; the filter
# keeps the ~10x TSan slowdown off the purely sequential 95% of the suite.
#
# Usage: scripts/check.sh [--tsan] [build-dir] [ctest args...]
#   build-dir  defaults to <repo>/build-check (or <repo>/build-check-tsan in
#              --tsan mode), kept separate from the plain ./build tree so
#              the configurations never mix
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# GCC leaves float-cast-overflow out of `undefined`; the samplers cast
# doubles to integers (core/rng.cpp), so it is named explicitly.
SANITIZERS="address,undefined,float-cast-overflow"
DEFAULT_BUILD_DIR="$ROOT/build-check"
CTEST_FILTER=()
LABEL="asan+ubsan"
if [[ "${1:-}" == "--tsan" ]]; then
    shift
    SANITIZERS="thread"
    DEFAULT_BUILD_DIR="$ROOT/build-check-tsan"
    # The concurrency surface: ThreadPool / parallel collapsed engine /
    # multi-threaded trial fan-out tests, the registry tests that run
    # several workers or subscribers (the fast ones: the suspend/drain
    # tests take minutes under TSan), and the wire server tests (accept
    # thread, per-connection readers, stop()).
    CTEST_FILTER=(-R 'ThreadPool|ParallelCollapsed|ThreadOptions|Trials|RunRegistryTest\.(Metrics|Hundreds|Subscribers|MidSession|FairScheduling)|WireServerTest')
    LABEL="tsan"
fi

BUILD_DIR="${1:-$DEFAULT_BUILD_DIR}"
shift || true

cmake -B "$BUILD_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOPPROTO_SANITIZE="$SANITIZERS"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes sanitizer findings fail the run instead of just
# logging (TSan already defaults to failing on a report).
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" \
    ${CTEST_FILTER[@]+"${CTEST_FILTER[@]}"} "$@")

echo "check.sh: $LABEL test suite passed"
