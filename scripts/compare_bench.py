#!/usr/bin/env python3
"""The paired A/B perf judge: the working tree against a git revision.

Usage: scripts/compare_bench.py [REF] [build-dir]

REF defaults to HEAD, so an uncommitted change is judged against its
parent; build-dir defaults to <repo>/build.  REF is exported with git
archive into <build-dir>/ab/base-src.  Both sides are configured the same
way, Release through perfbench/CMakeLists.txt (which adds the whole
repository as a subproject), into <build-dir>/ab/{base,change}.  The sides
then alternate, swapping which one runs first each round, so both meet the
same host state:

* google-benchmark: ROUNDS rounds of each suite's gated rows.  In a round
  each row runs six times back to back, alternating sides, and each side
  keeps its best repetition.  A row fails when the median of its per-round
  change/base ratios exceeds 1 + THRESHOLD, or when one side lacks it.
* perfbench: one pair per seed in SEEDS plus HELD_OUT_SEED, each a
  `perfbench/run.py --trace 0` pass of every BENCHMARK.json workload at its
  run_seconds.  Each end-to-end metric gets a verdict (see verdict()).
  "worse" or a larger failed share fails the judge; "unresolved" is
  reported, since it says the benchmark's own spread hides the bound.

Exit status 0 means pass, 1 a failed judge.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THRESHOLD = 0.15
ROUNDS = 5
SEEDS = range(1, 11)
HELD_OUT_SEED = 7777

# The gated rows of each suite, as google-benchmark filters: only these run.
# The rows left out are noise that pairing does not remove, because it comes
# from seeds and the scheduler rather than from the host.  BM_CollapsedScaling
# times how many cores the host gives the shards.  bench_observe's pricing
# rows run small-n workloads to silence, where per-seed convergence swings
# single rows 1.5x, so only its telemetry rows (budget-bound; the <= 2%
# probe-overhead bar) are gated.  bench_service's registry rows time
# worker-pool wakeups, so only its wire-dispatch row is gated.
# bench_adaptive's n >= 2^22 rows are full epidemics, seconds per iteration.
# bench_meanfield is an ODE solver off the interaction path and is not gated.
GATED = {"bench_throughput": ".",
         "bench_collapsed": "-BM_CollapsedScaling/",
         "bench_observe": "Telemetry",
         "bench_service": "Wire",
         "bench_scenarios": ".",
         "bench_adaptive": "/20"}


def run(command, **kwargs):
    command = [str(part) for part in command]
    result = subprocess.run(command, **kwargs)
    if result.returncode:
        sys.exit(f"compare_bench: {' '.join(command)} failed\n{result.stderr or ''}")
    return result


def prepare(ref, work, targets=("perfbench", *GATED)):
    """Exports REF (again only when its tree changed, so rebuilds stay
    incremental) and builds `targets` on both sides; returns {side: source
    root}.  scripts/check_identity.py builds trace_run through it."""
    tree = run(["git", "-C", ROOT, "rev-parse", f"{ref}^{{tree}}"],
               capture_output=True, text=True).stdout.strip()
    base, stamp = work / "base-src", work / "base-src.tree"
    if not stamp.exists() or stamp.read_text() != tree:
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", tree],
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(base)
        if archive.wait():
            sys.exit(f"compare_bench: git archive {ref} failed")
        stamp.write_text(tree)
    sides = {"base": base, "change": ROOT}
    for side, source in sides.items():
        build = work / side / "perfbench"
        run(["cmake", "-S", source / "perfbench", "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
        run(["cmake", "--build", build, "-j", min(4, os.cpu_count() or 1),
             "--target", *targets], stdout=subprocess.DEVNULL)
    return sides


def bench(work, side, suite, *args):
    # Address-space randomization moves code and heap against the cache
    # sets in every process, which swings single rows 0.75-1.4x between
    # two copies of one binary; setarch -R turns it off for the run.
    return run(["setarch", "-R", work / side / "perfbench/popproto/bench" / suite, *args],
               capture_output=True, text=True).stdout


def gbench(work, side, suite, row):
    """The best real_time of one row over two repetitions."""
    out = bench(work, side, suite, f"--benchmark_filter=^{re.escape(row)}$",
                "--benchmark_format=json", "--benchmark_min_time=0.05",
                "--benchmark_repetitions=2")
    return min(result["real_time"] for result in json.loads(out)["benchmarks"]
               if result.get("run_type") != "aggregate")


def perfbench(work, side, source, workload, seed, seconds):
    """The result object of one untraced perfbench pass."""
    out = run([sys.executable, source / "perfbench/run.py", "--workload",
               workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
              capture_output=True, text=True, cwd=source,
              env=dict(os.environ, CARGO_TARGET_DIR=str(work / side))).stdout
    return json.loads(out.strip().splitlines()[-1])


def judge_rows(rounds):
    """rounds: [({row: base time}, {row: change time})].
    Returns (table lines, failure messages)."""
    table, failures = [], []
    for row in sorted(set().union(*(set(b) | set(c) for b, c in rounds))):
        missing = [side for index, side in enumerate(("base", "change"))
                   if any(row not in pair[index] for pair in rounds)]
        if missing:
            failures.append(f"{row}: missing on the {' and '.join(missing)} side")
            continue
        base = statistics.median(b[row] for b, _ in rounds)
        change = statistics.median(c[row] for _, c in rounds)
        ratio = statistics.median(c[row] / b[row] for b, c in rounds)
        line = f"{row:<52} {base:>12.4g} {change:>12.4g} {ratio:>6.2f}"
        if ratio > 1 + THRESHOLD:
            line += "  <-- REGRESSION"
            failures.append(f"{row}: median base {base:.4g} -> change {change:.4g}"
                            f" ({ratio:.2f}x of paired ratios, bar "
                            f"{1 + THRESHOLD:.2f}x)")
        table.append(line)
    return table, failures


def wins(base, change, better):
    """The pairs in which the change beat the base."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - b) < 0 for b, c in zip(base, change))


def verdict(base, change, held_out, better, bound):
    """One end-to-end metric over paired passes (base[i] and change[i] ran
    the same seed), plus the held-out pair.
      worse      the change's median is worse than the base's by > bound;
      gain       the change wins >= 9 of 10 pairs and the held-out pair, by
                 a median gap wider than the base's interquartile range;
      unresolved either side's interquartile range exceeds bound x its
                 median, so a bound-sized move could hide in the spread,
                 and not every change run beats every base run;
      same       otherwise."""
    sign = 1 if better == "lower" else -1
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if sign * (mc - mb) > bound * abs(mb):
        return "worse"
    if (wins(base, change, better) >= 0.9 * len(base) and sign * (mb - mc) > q3 - q1
            and sign * (held_out[1] - held_out[0]) < 0):
        return "gain"
    if max(sign * c for c in change) >= min(sign * b for b in base):
        for values, median in ((base, mb), (change, mc)):
            low, _, high = statistics.quantiles(values, n=4)
            if high - low > bound * abs(median):
                return "unresolved"
    return "same"


def judge_workload(pairs, metrics):
    """pairs: [(base result, change result)] per seed, held-out pair last;
    metrics: BENCHMARK.json's end_to_end list.
    Returns (table lines, failure messages)."""
    paired, held_out = pairs[:-1], pairs[-1]
    table, failures = [], []
    fmt = "{:<20} {:>36} {:>36} {:>5} {:>23}  {}"
    table.append(fmt.format("metric", "base median [q1, q3]",
                            "change median [q1, q3]", "wins",
                            "held-out base/change", "verdict"))
    for metric in metrics:
        name = metric["name"]
        sides = [[pair[i]["metrics"][name]["value"] for pair in paired] for i in (0, 1)]
        held = [held_out[i]["metrics"][name]["value"] for i in (0, 1)]
        summary = ["{:.4g} [{:.4g}, {:.4g}]".format(
            statistics.median(values), *statistics.quantiles(values, n=4)[::2])
            for values in sides]
        outcome = verdict(*sides, held, metric["better"], metric["bound"])
        table.append(fmt.format(name, *summary,
                                f"{wins(*sides, metric['better'])}/{len(paired)}",
                                "{:.4g}/{:.4g}".format(*held), outcome))
        if outcome == "worse":
            failures.append(f"{name}: {outcome} (base {summary[0]}, change "
                            f"{summary[1]}, bound {metric['bound']:.0%})")
    failed, attempted = ([sum(pair[i][key] for pair in pairs) for i in (0, 1)]
                         for key in ("failed", "attempted"))
    table.append(f"failed: base {failed[0]}/{attempted[0]}, "
                 f"change {failed[1]}/{attempted[1]}")
    if failed[1] * attempted[0] > failed[0] * attempted[1]:
        failures.append(f"failed share rose: base {failed[0]}/{attempted[0]}"
                        f" -> change {failed[1]}/{attempted[1]}")
    return table, failures


def main():
    if len(sys.argv) > 3:
        sys.exit(__doc__)
    ref = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    work = Path(sys.argv[2] if len(sys.argv) > 2 else ROOT / "build").resolve() / "ab"
    sides = prepare(ref, work)
    order = lambda i: ("base", "change") if i % 2 == 0 else ("change", "base")
    failures = []

    # Each row runs on the two sides in turn, three times, so both sides
    # sample the same host states (a suite-level pass would put seconds
    # between them), and each side's best of six repetitions drops the
    # slow-state samples this host produces every few seconds.
    rows = {suite: {side: bench(work, side, suite, f"--benchmark_filter={GATED[suite]}",
                                "--benchmark_list_tests").split() for side in sides}
            for suite in GATED}
    rounds = {suite: [] for suite in GATED}
    for i in range(ROUNDS):
        print(f"gbench round {i + 1}/{ROUNDS}", file=sys.stderr, flush=True)
        for suite, listed in rows.items():
            times = {side: {} for side in sides}
            for row in sorted(set().union(*listed.values())):
                for side in order(i) * 3:
                    if row in listed[side]:
                        times[side][row] = min(times[side].get(row, float("inf")),
                                               gbench(work, side, suite, row))
            rounds[suite].append((times["base"], times["change"]))
    for suite, suite_rounds in rounds.items():
        table, suite_failures = judge_rows(suite_rounds)
        print(f"== {suite}: median over {ROUNDS} rounds of change/base vs {ref}")
        print(f"{'benchmark':<52} {'base':>12} {'change':>12} {'ratio':>6}")
        print("\n".join(table))
        failures += [f"{suite} {message}" for message in suite_failures]

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in config["workloads"]):
        pairs = []
        for i, seed in enumerate([*SEEDS, HELD_OUT_SEED]):
            print(f"perfbench {workload} seed {seed}", file=sys.stderr, flush=True)
            results = {side: perfbench(work, side, sides[side], workload, seed,
                                       config["run_seconds"])
                       for side in order(i)}
            pairs.append((results["base"], results["change"]))
        table, workload_failures = judge_workload(pairs, config["end_to_end"])
        print(f"\n== perfbench {workload}: {len(SEEDS)} pairs (seeds "
              f"{SEEDS[0]}-{SEEDS[-1]}) + held-out seed {HELD_OUT_SEED} vs {ref}")
        print("\n".join(table))
        failures += [f"{workload} {message}" for message in workload_failures]

    if failures:
        sys.exit("\nFAIL:\n  " + "\n  ".join(failures))
    print(f"\nOK: no gated row over {1 + THRESHOLD:.2f}x and no perfbench "
          f"metric worse against {ref}")


if __name__ == "__main__":
    main()
