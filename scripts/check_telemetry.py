#!/usr/bin/env python3
"""Validates the two `trace_run --profile` artifacts, or a silent stop.

Usage: scripts/check_telemetry.py <base>.trace.json <base>.prom [<run>.jsonl]
       scripts/check_telemetry.py <epidemic-run>.jsonl

Holds the Chrome trace-event JSON and the Prometheus text exposition to the
schema documented in DESIGN.md "Telemetry" — the CI smoke stage
(scripts/ci.sh) runs a short collapsed threads=4 profile and feeds both
files through here, so an exporter regression fails the gate instead of
producing a file Perfetto silently refuses to load.

Checks (exit 1 with a message on the first violation):

  Chrome trace: parses as JSON; has displayTimeUnit, otherData with
  schema_version/engine/population, and a non-empty traceEvents array;
  every event is a complete ("X", with ts/dur/name/tid) or metadata ("M")
  event; per tid, complete events nest properly (no half-overlaps — that
  is what makes the flame graph render as a stack).  The exporter writes
  whole nanoseconds as 3-decimal microseconds, so nesting is judged in
  integer nanoseconds (float sums of ts + dur would invent overlaps).

  Prometheus: every line is a comment or `name{labels} value` with a
  finite float value; every # TYPE names a popproto_* family that then
  appears; the documented families (run info, per-phase seconds; per-shard
  busy/wait and the super-step histogram on the collapsed profile; the
  engine-segment families and both histograms on the adaptive one) are
  present; every histogram's cumulative _bucket samples never decrease
  and its le="+Inf" bucket equals its _count; and the super-steps'
  interactions (popproto_super_step_pairs_total) sum to the run's
  interactions, or on the adaptive profile to the collapsed segments'.

  JSONL (optional third argument; the trace_run stdout of an *adaptive*
  run): every engine_switch event is well-formed (monotone t, switch_index
  counting from 1, from != to, consecutive switches chaining from -> to,
  one crossover: enter_threshold == exit_threshold, and the signal on its
  switch's side of it); the telemetry event's
  engine_segments agree with the switch events (count, engine chain) and
  attribute every interaction of the final stop event to exactly one
  segment; and the Prometheus exposition carries the per-engine families
  (popproto_engine_switches_total, popproto_engine_segment_*).

  One argument (the trace_run stdout of an epidemic run): the stop event
  is silent and lands on the last output change.  Every effective
  epidemic interaction infects an agent and so changes an output, and every
  engine stops at its first silent configuration, so a silent stop has
  interactions == last_output_change.  An engine that tested silence only
  now and then would stop later.
"""

import json
import math
import re
import sys


def fail(message: str) -> None:
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> None:
    with open(path) as f:
        try:
            trace = json.load(f)
        except json.JSONDecodeError as error:
            fail(f"{path} is not valid JSON: {error}")

    for key in ("displayTimeUnit", "otherData", "traceEvents"):
        if key not in trace:
            fail(f"{path}: missing top-level key {key!r}")
    for key in ("schema_version", "engine", "population", "threads"):
        if key not in trace["otherData"]:
            fail(f"{path}: otherData missing {key!r}")

    events = trace["traceEvents"]
    if not events:
        fail(f"{path}: traceEvents is empty")

    spans_by_tid = {}
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") != "thread_name":
                fail(f"{path}: unexpected metadata event {event}")
            continue
        if ph != "X":
            fail(f"{path}: unexpected event phase {ph!r} in {event}")
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                fail(f"{path}: complete event missing {key!r}: {event}")
        if event["dur"] < 0:
            fail(f"{path}: negative duration in {event}")
        spans_by_tid.setdefault(event["tid"], []).append(
            (round(event["ts"] * 1000), round((event["ts"] + event["dur"]) * 1000),
             event["name"]))

    if not spans_by_tid:
        fail(f"{path}: no complete ('X') events")

    # Proper nesting per thread: sweep spans in (start, -end) order and
    # keep a stack; a span must close inside whatever span contains it.
    for tid, spans in spans_by_tid.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for begin, end, name in spans:
            while stack and stack[-1][1] <= begin:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(f"{path}: tid {tid}: span {name!r} [{begin}, {end}) "
                     f"half-overlaps {stack[-1][2]!r} "
                     f"[{stack[-1][0]}, {stack[-1][1]})")
            stack.append((begin, end, name))

    print(f"check_telemetry: {path}: "
          f"{sum(len(s) for s in spans_by_tid.values())} spans over "
          f"{len(spans_by_tid)} threads, properly nested")


LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')

REQUIRED_FAMILIES = (
    "popproto_run_info",
    "popproto_run_wall_seconds",
    "popproto_run_interactions_total",
    "popproto_phase_seconds_total",
    "popproto_phase_calls_total",
)

# The collapsed profile runs sharded (threads > 1), so it emits the pool
# families; the adaptive dispatcher is serial, so its profile legitimately
# lacks them.
COLLAPSED_FAMILIES = (
    "popproto_shard_busy_seconds_total",
    "popproto_shard_wait_seconds_total",
    "popproto_pool_rounds_total",
    "popproto_super_step_pairs_log2",
)


ADAPTIVE_FAMILIES = (
    "popproto_engine_switches_total",
    "popproto_engine_segment_seconds_total",
    "popproto_engine_segment_interactions_total",
    "popproto_null_skip_length_log2",
    "popproto_super_step_pairs_log2",
)


def check_prometheus(path: str, adaptive: bool = False) -> None:
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n"):
        fail(f"{path}: exposition must end with a newline")

    typed = set()
    seen = set()
    buckets = {}  # histogram family -> [(lineno, le, cumulative count)]
    values = []  # (name, labels, value) of every sample
    counts = {}   # histogram family -> _count sample
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        match = LINE_RE.match(line)
        if match is None:
            fail(f"{path}:{lineno}: not `name{{labels}} value`: {line!r}")
        labels = match.group("labels")
        if labels:
            for label in labels.split(","):
                if not LABEL_RE.match(label):
                    fail(f"{path}:{lineno}: bad label {label!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            fail(f"{path}:{lineno}: non-numeric value: {line!r}")
        if math.isnan(value):
            fail(f"{path}:{lineno}: NaN value: {line!r}")
        name = match.group("name")
        seen.add(name)
        values.append((name, labels or "", value))
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels or "")
            if le is None:
                fail(f"{path}:{lineno}: histogram bucket without le: {line!r}")
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (lineno, le.group(1), value))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = value

    # Histograms: cumulative buckets never decrease, and the +Inf bucket
    # holds every sample.
    for family, samples in buckets.items():
        for (_, _, previous), (lineno, _, value) in zip(samples, samples[1:]):
            if value < previous:
                fail(f"{path}:{lineno}: {family}_bucket decreases "
                     f"({previous} -> {value})")
        infinite = [value for _, le, value in samples if le == "+Inf"]
        if len(infinite) != 1:
            fail(f"{path}: {family} has {len(infinite)} le=\"+Inf\" buckets")
        if family not in counts:
            fail(f"{path}: histogram {family} has no _count sample")
        if infinite[0] != counts[family]:
            fail(f"{path}: {family} le=\"+Inf\" bucket {infinite[0]} != "
                 f"_count {counts[family]}")

    required = REQUIRED_FAMILIES + (ADAPTIVE_FAMILIES if adaptive
                                    else COLLAPSED_FAMILIES)
    for family in required:
        # Histogram samples append _bucket/_sum/_count to the family name.
        if not any(name == family or name.startswith(family + "_") for name in seen):
            fail(f"{path}: required metric family {family!r} missing")
    for family in typed:
        if not any(name == family or name.startswith(family + "_") for name in seen):
            fail(f"{path}: # TYPE {family} declared but no sample emitted")

    check_super_step_accounting(path, values, adaptive)

    print(f"check_telemetry: {path}: {len(seen)} metric names, "
          f"{len(typed)} typed families, {len(buckets)} histograms, "
          f"all well-formed")


def check_super_step_accounting(path: str, values, adaptive: bool) -> None:
    """A super-step executes exactly the interactions it is given, so the
    super-steps' interactions sum to the run's (collapsed profile) or to the
    collapsed segments' (adaptive profile)."""
    def total(name, label=None):
        return sum(value for sample, labels, value in values
                   if sample == name and (label is None or label in labels))
    executed = total("popproto_super_step_pairs_total")
    if adaptive:
        expected = total("popproto_engine_segment_interactions_total",
                         'engine="collapsed"')
        what = "the collapsed segments' interactions"
    else:
        expected = total("popproto_run_interactions_total")
        what = "the run's interactions"
    if executed != expected:
        fail(f"{path}: super-steps executed {executed:.0f} interactions, "
             f"but {what} number {expected:.0f}")


SWITCH_KEYS = ("t", "from", "to", "signal", "enter_threshold",
               "exit_threshold", "switch_index")


def check_adaptive_jsonl(path: str) -> None:
    """Validates the engine_switch events and per-engine attribution of an
    adaptive trace_run JSONL stream (requires --profile, for the telemetry
    event)."""
    switches = []
    telemetry = None
    stop = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{path}:{lineno}: not valid JSON: {error}")
            kind = event.get("event")
            if kind == "engine_switch":
                for key in SWITCH_KEYS:
                    if key not in event:
                        fail(f"{path}:{lineno}: engine_switch missing {key!r}")
                switches.append(event)
            elif kind == "telemetry":
                telemetry = event
            elif kind == "stop":
                stop = event

    if not switches:
        fail(f"{path}: no engine_switch events — the smoke workload is "
             f"expected to cross the crossover both ways")
    if stop is None:
        fail(f"{path}: no stop event")
    for index, switch in enumerate(switches):
        where = f"{path}: engine_switch #{index + 1}"
        if switch["switch_index"] != index + 1:
            fail(f"{where}: switch_index {switch['switch_index']}, "
                 f"expected {index + 1}")
        if switch["from"] == switch["to"]:
            fail(f"{where}: degenerate switch {switch['from']} -> {switch['to']}")
        if index > 0:
            if switch["t"] <= switches[index - 1]["t"]:
                fail(f"{where}: t {switch['t']} not after previous switch at "
                     f"{switches[index - 1]['t']}")
            if switch["from"] != switches[index - 1]["to"]:
                fail(f"{where}: from {switch['from']!r} does not chain with "
                     f"previous switch to {switches[index - 1]['to']!r}")
        # One crossover serves both directions, and the signal sits on the
        # side of it that the switch went to.
        if switch["enter_threshold"] != switch["exit_threshold"]:
            fail(f"{where}: enter_threshold {switch['enter_threshold']} != "
                 f"exit_threshold {switch['exit_threshold']}")
        if switch["to"] == "collapsed" and switch["signal"] < switch["enter_threshold"]:
            fail(f"{where}: entered collapsed at signal {switch['signal']} "
                 f"below enter_threshold {switch['enter_threshold']}")
        if switch["to"] == "count_batch" and switch["signal"] > switch["exit_threshold"]:
            fail(f"{where}: exited collapsed at signal {switch['signal']} "
                 f"above exit_threshold {switch['exit_threshold']}")

    if telemetry is None:
        fail(f"{path}: no telemetry event (run trace_run with --profile)")
    segments = telemetry.get("engine_segments")
    if not segments:
        fail(f"{path}: telemetry event has no engine_segments")
    if telemetry.get("engine_switches") != len(switches):
        fail(f"{path}: telemetry engine_switches "
             f"{telemetry.get('engine_switches')} != {len(switches)} "
             f"engine_switch events")
    if len(segments) != len(switches) + 1:
        fail(f"{path}: {len(segments)} engine_segments for {len(switches)} "
             f"switches (want switches + 1)")
    for index, switch in enumerate(switches):
        if segments[index]["engine"] != switch["from"]:
            fail(f"{path}: segment {index} ran {segments[index]['engine']!r} "
                 f"but switch #{index + 1} left {switch['from']!r}")
        if segments[index + 1]["engine"] != switch["to"]:
            fail(f"{path}: segment {index + 1} ran "
                 f"{segments[index + 1]['engine']!r} but switch #{index + 1} "
                 f"entered {switch['to']!r}")
    attributed = sum(segment["interactions"] for segment in segments)
    if attributed != stop["interactions"]:
        fail(f"{path}: engine_segments attribute {attributed} interactions, "
             f"stop event reports {stop['interactions']}")

    print(f"check_telemetry: {path}: {len(switches)} engine switches, "
          f"{len(segments)} segments, every interaction attributed")


def check_silent_epidemic(path: str) -> None:
    stop = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{path}:{lineno}: not valid JSON: {error}")
            if event.get("event") == "stop":
                stop = event
    if stop is None:
        fail(f"{path}: no stop event")
    if stop["reason"] != "silent":
        fail(f"{path}: epidemic stopped on {stop['reason']!r}, not silence")
    if stop["interactions"] != stop["last_output_change"]:
        fail(f"{path}: silent stop at interaction {stop['interactions']}, "
             f"but the last infection was at {stop['last_output_change']}: "
             f"the engine ran past its first silent configuration")
    print(f"check_telemetry: {path}: silent stop at the last infection, "
          f"interaction {stop['interactions']}")


def main() -> None:
    if len(sys.argv) == 2:
        check_silent_epidemic(sys.argv[1])
        print("check_telemetry: OK")
        return
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(sys.argv[1])
    check_prometheus(sys.argv[2], adaptive=len(sys.argv) == 4)
    if len(sys.argv) == 4:
        check_adaptive_jsonl(sys.argv[3])
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()
