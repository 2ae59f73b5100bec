#!/usr/bin/env python3
"""Cross-build bit-identity: the working tree's seeded runs against REF's.

Usage: scripts/check_identity.py [REF] [build-dir] [--engines ROW,ROW,...]

REF defaults to HEAD and build-dir to <repo>/build.  REF is exported and
both sides are built exactly as scripts/compare_bench.py does it (the
export in <build-dir>/ab/base-src, Release builds through
perfbench/CMakeLists.txt into <build-dir>/ab/{base,change}), here only the
trace_run target.  Each side then runs the verify recipe's set: every
engine row in --engines (default: all of ENGINES below, by name) x seeds
1-3 x

  trace_run --predicate 'x0 - 19*x1 < 1' --counts 3891,205 --every 100000
      (the fever predicate, |Q| = 79: sparse columns and the row search)
  trace_run epidemic --n 1048576 --every 1048576
  trace_run epidemic --n 1048576 --log 1.3
      (log-spaced snapshots: super-steps clamped at many boundaries)

and the two outputs are compared line by line with "wall_seconds" struck
out: every start, snapshot and stop line and the final counts.  The sides
stream side by side, so memory stays flat however long the outputs are.
The rows beyond the four engines are the sharded collapsed engine (K = 2)
and the adaptive engine with its crossover forced to x* = 1, which
switches step kind many more times.  A change that moves the collapsed
super-step by design moves the collapsed, sharded and adaptive
trajectories too; pass --engines agent,batch then.

Exit status 0 when every line matches; 1 at the first differing line,
which is printed with its command.
"""

import re
import subprocess
import sys
from pathlib import Path

from compare_bench import ROOT, prepare

ENGINES = {
    "agent": ["--engine", "agent"],
    "batch": ["--engine", "batch"],
    "collapsed": ["--engine", "collapsed"],
    "sharded": ["--engine", "collapsed", "--threads", "2"],
    "adaptive": ["--engine", "adaptive"],
    "adaptive-switching": ["--engine", "adaptive", "--switch-thresholds", "1"],
}
SEEDS = (1, 2, 3)
WORKLOADS = (
    ["--predicate", "x0 - 19*x1 < 1", "--counts", "3891,205", "--every", "100000"],
    ["epidemic", "--n", "1048576", "--every", "1048576"],
    ["epidemic", "--n", "1048576", "--log", "1.3"],
)
WALL_SECONDS = re.compile(r',"wall_seconds":[^,}]*')


def compare(trace_runs, args):
    """Runs `args` on both sides; returns the first differing line pair or
    None, and the number of lines compared."""
    processes = [subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE, text=True)
                 for binary in trace_runs]
    compared = 0
    mismatch = None
    while mismatch is None:
        lines = [WALL_SECONDS.sub("", p.stdout.readline()) for p in processes]
        if lines[0] != lines[1]:
            mismatch = lines
        elif not lines[0]:
            break
        compared += 1
    for p in processes:
        p.stdout.close()
        if mismatch is not None:
            p.kill()
        if p.wait() and mismatch is None:
            sys.exit(f"check_identity: {p.args[0]} {' '.join(args)} exited with {p.returncode}")
    return mismatch, compared


def main():
    argv = sys.argv[1:]
    engines = tuple(ENGINES)
    if "--engines" in argv:
        at = argv.index("--engines")
        if at + 1 >= len(argv):
            sys.exit(__doc__)
        engines = tuple(argv[at + 1].split(","))
        del argv[at:at + 2]
        if not engines or any(engine not in ENGINES for engine in engines):
            sys.exit(f"check_identity: --engines takes some of {','.join(ENGINES)}")
    if len(argv) > 2:
        sys.exit(__doc__)
    ref = argv[0] if argv else "HEAD"
    work = Path(argv[1] if len(argv) > 1 else ROOT / "build").resolve() / "ab"
    prepare(ref, work, ("trace_run",))
    trace_runs = [work / side / "perfbench/popproto/examples/trace_run"
                  for side in ("base", "change")]

    total = 0
    for engine in engines:
        for workload in WORKLOADS:
            for seed in SEEDS:
                args = [*workload, *ENGINES[engine], "--seed", str(seed)]
                mismatch, compared = compare(trace_runs, args)
                total += compared
                if mismatch is not None:
                    print(f"check_identity: trace_run {' '.join(args)} differs at line "
                          f"{compared + 1}:\n  {ref}: {mismatch[0].rstrip() or '(end)'}\n"
                          f"  change: {mismatch[1].rstrip() or '(end)'}")
                    sys.exit(1)
                print(f"trace_run {' '.join(args)}: {compared} lines identical", flush=True)
    print(f"check_identity: OK, {total} lines identical against {ref} "
          f"(engines {','.join(engines)})")


if __name__ == "__main__":
    main()
