#!/usr/bin/env python3
"""The repository benchmark: one pass of one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
                           [--smoke] [--inject-wrong]

Builds the perfbench binary and serve_popproto from source (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary.  Its stdout is passed through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}.  Traced passes
(--trace 1) also leave a Chrome trace and a Prometheus exposition under
<build dir>/traces/.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("epidemic-serial", "epidemic-parallel", "predicate-serial",
             "service-mix")
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source: Path, build_dir: Path) -> None:
    """Configures once, then lets CMake rebuild whatever changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(step)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations: proves every metric prints")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="flip every expectation: every output is a miss")
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = build_dir / "perfbench"
    build(source, build_dir)

    workdir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", str(build_dir / "popproto/examples/serve_popproto"),
               "--workdir", str(workdir)]
    if args.smoke:
        command.append("--smoke")
    if args.inject_wrong:
        command.append("--inject-wrong")
    # The binary spawns daemons; its own process group lets a timeout stop
    # them together with it.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.communicate()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        traces = workdir / "trace"
        if traces.is_dir():
            (build_dir / "traces").mkdir(exist_ok=True)
            for item in traces.iterdir():
                shutil.move(str(item), str(build_dir / "traces" / item.name))
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(stdout)
    if bench.returncode != 0:
        fail(f"perfbench exited with code {bench.returncode}")
    lines = stdout.strip().splitlines()
    if not lines or set(json.loads(lines[-1])) != {"correct", "attempted",
                                                   "failed", "metrics"}:
        fail("perfbench printed no result line")


if __name__ == "__main__":
    main()
