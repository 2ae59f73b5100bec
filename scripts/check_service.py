#!/usr/bin/env python3
"""End-to-end smoke test for the simulation service (src/service).

Usage: scripts/check_service.py <build-dir> [--sessions N]

Drives the real binaries the way an operator would and fails (exit 1) on
the first violated guarantee:

  1. trace_run signal handling: SIGINT mid-run with --checkpoint exits
     cleanly with a final checkpoint, and --resume from that file finishes
     with a stop event identical to the uninterrupted run's.
  2. serve_popproto + popctl: N (default 1000) concurrent sessions
     submitted over the Unix socket all reach a terminal state; the
     sustained throughput and submit->done latency percentiles are printed
     (the EXPERIMENTS.md "Service throughput" table quotes these).  The
     daemon's metrics aggregate, folded from every quantum's RunResult,
     then counts every executed quantum exactly once.
  3. suspend -> evict -> resume: with --max-resident 0 every suspend
     spills to the checkpoint store; the resumed run's final counters are
     bit-identical to an uninterrupted session with the same spec.
  4. SIGTERM drain + restart: the daemon checkpoints every in-flight
     session on SIGTERM; a fresh daemon over the same spill directory
     restores them, finishes the interrupted run bit-identically, and
     preserves terminal sessions verbatim.
  5. malformed submits: counts that wrap past 2^64, a predicate whose
     constants overflow int64, an oversize predicate and an adversarial
     probe past its cap are answered ok:false with the named error, and the
     daemon then still runs a normal session to done.
  6. mid-session subscribe: a subscriber who attaches to a session that ran
     unwatched so far receives its trajectory from the next quantum on —
     every snapshot past that point, no start event — then the stop and
     done events, and the run is bit-identical to an unwatched one.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

TERMINAL_STATES = {"done", "failed", "cancelled"}

# Dense agent-array work, 128 quanta: long enough that suspends, drains,
# and restarts reliably land mid-run, short enough to finish in seconds.
# The budget (8n) sits well below the epidemic's ~16n silence point, so
# the run is budget-bound — it cannot converge early and shrink the
# window the suspend/drain stages race against.
LONG_SPEC = {
    "protocol": "epidemic",
    "counts": [(1 << 20) - 1, 1],
    "engine": "agent",
    "quantum": 1 << 16,
    "budget": 128 << 16,
}

# The status fields two bit-identical runs must agree on.
IDENTITY_FIELDS = (
    "state",
    "interactions",
    "effective_interactions",
    "last_output_change",
    "stop_reason",
    "consensus",
)


def fail(message: str) -> None:
    print(f"check_service: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Client:
    """Blocking newline-delimited JSON client, mirroring ServiceClient."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def request(self, obj: dict) -> dict:
        self.file.write((json.dumps(obj) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            fail(f"daemon closed the connection answering {obj}")
        return json.loads(line)

    def ok(self, obj: dict) -> dict:
        response = self.request(obj)
        if not response.get("ok"):
            fail(f"request {obj} failed: {response}")
        return response

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def wait_status(client: Client, session: str, predicate, what: str,
                timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        status = client.ok({"cmd": "status", "session": session})
        if predicate(status):
            return status
        if time.monotonic() > deadline:
            fail(f"timed out waiting for {what} on {session}: {status}")
        time.sleep(0.002)


def is_terminal(status: dict) -> bool:
    return status.get("state") in TERMINAL_STATES


def identity(status: dict) -> dict:
    return {key: status.get(key) for key in IDENTITY_FIELDS}


def expect_identical(a: dict, b: dict, what: str) -> None:
    if identity(a) != identity(b):
        fail(f"{what}: runs diverged:\n  {identity(a)}\n  {identity(b)}")


def start_daemon(build_dir: str, sock_path: str, spill_dir: str) -> subprocess.Popen:
    daemon = subprocess.Popen(
        [
            os.path.join(build_dir, "examples", "serve_popproto"),
            "--socket", sock_path,
            "--spill-dir", spill_dir,
            "--workers", "4",
            "--max-resident", "0",  # every suspend spills: exercises eviction
            "--quiet",
        ],
    )
    deadline = time.monotonic() + 10
    while not os.path.exists(sock_path):
        if daemon.poll() is not None or time.monotonic() > deadline:
            fail("serve_popproto did not come up")
        time.sleep(0.01)
    return daemon


def check_trace_run_signals(build_dir: str, work_dir: str) -> None:
    trace_run = os.path.join(build_dir, "examples", "trace_run")
    ckpt = os.path.join(work_dir, "interrupt.ckpt")
    # Budget-bound (8n, below the ~16n silence point): ~1.3 s of work, so
    # the SIGINT at 0.3 s reliably lands mid-run.
    flags = ["epidemic", "--n", "2097152", "--engine", "agent",
             "--budget", "16777216", "--seed", "9"]

    with open(os.path.join(work_dir, "part1.jsonl"), "wb") as out:
        proc = subprocess.Popen([trace_run, *flags, "--checkpoint", ckpt],
                                stdout=out, stderr=subprocess.PIPE)
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    if proc.returncode != 0:
        fail(f"trace_run exited {proc.returncode} on SIGINT: {stderr.decode()}")
    if b"interrupted at" not in stderr:
        fail(f"trace_run finished before the SIGINT landed; raise the budget "
             f"(stderr: {stderr.decode()!r})")
    if not os.path.exists(ckpt):
        fail("trace_run reported a checkpoint but wrote none")

    def final_stop_event(args: list) -> dict:
        lines = subprocess.run([trace_run, *args], check=True,
                               capture_output=True).stdout.splitlines()
        event = json.loads(lines[-1])
        if event.get("event") != "stop":
            fail(f"trace_run did not end with a stop event: {event}")
        event.pop("wall_seconds", None)  # the only legitimately varying field
        return event

    resumed = final_stop_event([*flags, "--resume", ckpt])
    uninterrupted = final_stop_event(flags)
    if resumed != uninterrupted:
        fail(f"SIGINT + resume diverged from the uninterrupted run:\n"
             f"  resumed:       {resumed}\n  uninterrupted: {uninterrupted}")
    print("check_service: trace_run SIGINT -> checkpoint -> resume is bit-identical")


def check_throughput(client: Client, sessions: int) -> None:
    spec = {"protocol": "epidemic", "counts": [63, 1], "engine": "agent"}
    submitted_at = {}
    start = time.monotonic()
    for i in range(sessions):
        response = client.ok({"cmd": "submit", **spec, "seed": i + 1})
        submitted_at[response["session"]] = time.monotonic()

    done_at = {}
    deadline = time.monotonic() + 120
    while len(done_at) < sessions:
        if time.monotonic() > deadline:
            fail(f"only {len(done_at)}/{sessions} sessions finished in 120 s")
        now = time.monotonic()
        listing = client.ok({"cmd": "list"})
        for status in listing["sessions"]:
            session = status["session"]
            if session in submitted_at and session not in done_at:
                if status["state"] not in TERMINAL_STATES:
                    continue
                if status["state"] != "done":
                    fail(f"session {session} ended {status['state']}: {status}")
                done_at[session] = now
        time.sleep(0.02)
    elapsed = max(time.monotonic() - start, 1e-9)

    latencies = sorted(done_at[s] - submitted_at[s] for s in submitted_at)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)]
    print(f"check_service: {sessions} sessions all done in {elapsed:.2f} s "
          f"({sessions / elapsed:.0f} runs/s sustained; submit->done "
          f"p50 {p50 * 1000:.0f} ms, p99 {p99 * 1000:.0f} ms)")


def check_metrics_aggregate(client: Client) -> None:
    """With every session finished, each executed quantum has been folded
    into stats.metrics exactly once: a dropped or doubled merge breaks one
    of these equalities."""
    stats = client.ok({"cmd": "stats"})["stats"]
    metrics = stats["metrics"]
    finished = metrics["runs_finished"]
    if finished != stats["quanta"]:
        fail(f"metrics.runs_finished {finished} != stats.quanta {stats['quanta']}")
    stops = sum(metrics[key] for key in ("stops_silent", "stops_stable_outputs",
                                         "stops_budget", "stops_paused"))
    if stops != finished:
        fail(f"stop-reason counts sum to {stops}, runs_finished is {finished}")
    if metrics["runs_started"] != finished:
        fail(f"idle daemon: runs_started {metrics['runs_started']} != "
             f"runs_finished {finished}")
    print(f"check_service: metrics aggregate counts all {finished} quanta once")


# Submits that must be refused, each with the error it must name.
MALFORMED_SUBMITS = (
    # 2^64 - 1 + 3 wraps to a population of 2.
    ({"protocol": "epidemic", "counts": [(1 << 64) - 1, 3], "engine": "batch",
      "budget": 100},
     "from_input_counts: counts sum past 2^64 - 1 agents"),
    # The constant sum overflows int64 inside the Presburger parser.
    ({"protocol": "predicate", "counts": [5, 3],
      "predicate": "x0 + 9223372036854775807 + 9223372036854775807 < 1"},
     "parse_formula: integer overflow at position 27"),
    # One threshold atom of 8,000,012 states: its reachable states pass the
    # compiler's cap before any table is sized.
    ({"protocol": "predicate", "counts": [5, 3], "predicate": "x0 < 1000000"},
     "compile_formula: the predicate reaches more than 2048 states"),
    # The adversarial model's window is sized by the probe: at n = 2^16 an
    # unbounded probe would ask for n(n - 1) 32-byte entries (~137 GB).
    ({"protocol": "epidemic", "counts": [65535, 1], "model": "adversarial",
      "probe": 1000000000000},
     "'probe' must be at most 65536"),
)


def check_malformed_submits(client: Client) -> None:
    for spec, expected in MALFORMED_SUBMITS:
        response = client.request({"cmd": "submit", **spec})
        if response.get("ok") is not False or expected not in response.get("error", ""):
            fail(f"submit {spec} answered {response}; expected ok:false naming "
                 f"{expected!r}")
    session = client.ok({"cmd": "submit", "protocol": "epidemic", "counts": [63, 1],
                         "engine": "batch", "seed": 3})["session"]
    status = wait_status(client, session, is_terminal, "terminal state")
    if status["state"] != "done":
        fail(f"session after the malformed submits ended {status['state']}: {status}")
    print(f"check_service: {len(MALFORMED_SUBMITS)} malformed submits refused by name; "
          f"a normal session still runs to done")


def check_mid_session_subscribe(client: Client, sock_path: str) -> None:
    period = 1 << 16
    spec = {**LONG_SPEC, "seed": 277, "snapshot_every": period}
    session = client.ok({"cmd": "submit", **spec})["session"]
    wait_status(client, session, lambda s: s.get("quanta", 0) >= 2, "progress")
    client.ok({"cmd": "suspend", "session": session})
    paused = wait_status(
        client, session,
        lambda s: s["state"] in ("suspended", "evicted") or is_terminal(s), "suspension")
    if is_terminal(paused):
        fail(f"run finished before the suspend landed: {paused}")

    watcher = Client(sock_path)
    watcher.ok({"cmd": "subscribe", "session": session})
    client.ok({"cmd": "resume", "session": session})
    # The suspension's own "suspended" state event may still be in flight
    # when the subscriber attaches; the stream ends at the terminal one.
    events = []
    while not events or events[-1].get("state") not in TERMINAL_STATES:
        line = watcher.file.readline()
        if not line:
            fail(f"subscriber stream of {session} closed early: {events[-3:]}")
        event = json.loads(line)
        if event.get("state") not in ("suspended", "evicted"):
            events.append(event)
    watcher.close()
    finished = wait_status(client, session, is_terminal, "terminal state")

    if any(event.get("session") != session for event in events):
        fail(f"subscriber of {session} received another session's events")
    kinds = [event["event"] for event in events]
    if "start" in kinds:
        fail("a mid-session subscriber received a start event")
    if kinds[-2:] != ["stop", "state"] or events[-1].get("state") != "done":
        fail(f"mid-session subscriber did not end on stop + done: {kinds[-3:]}")
    snapshots = [event["t"] for event in events if event["event"] == "snapshot"]
    expected = list(range((paused["interactions"] // period + 1) * period,
                          finished["interactions"] + 1, period))
    if not expected or snapshots != expected:
        fail(f"mid-session subscriber saw snapshots {snapshots[:3]}..{snapshots[-3:]}, "
             f"expected {expected[:3]}..{expected[-3:]}")

    reference = client.ok({"cmd": "submit", **spec})["session"]
    direct = wait_status(client, reference, is_terminal, "terminal state")
    expect_identical(finished, direct, "mid-session subscribe")
    print(f"check_service: a subscriber attaching at interaction "
          f"{paused['interactions']} saw the {len(snapshots)} later snapshots, stop and "
          f"done; the watched run is bit-identical to an unwatched one")


def check_suspend_evict_resume(client: Client, spill_dir: str) -> None:
    spec = {**LONG_SPEC, "seed": 77}
    session = client.ok({"cmd": "submit", **spec})["session"]
    wait_status(client, session, lambda s: s.get("quanta", 0) >= 2, "progress")
    client.ok({"cmd": "suspend", "session": session})
    status = wait_status(
        client, session,
        lambda s: s["state"] == "evicted" or is_terminal(s), "eviction")
    if status["state"] != "evicted":
        fail(f"run finished before the suspend landed: {status}")
    if not os.path.exists(os.path.join(spill_dir, f"{session}.ckpt")):
        fail(f"evicted session {session} has no spilled checkpoint")
    client.ok({"cmd": "resume", "session": session})
    resumed = wait_status(client, session, is_terminal, "terminal state")

    reference = client.ok({"cmd": "submit", **spec})["session"]
    direct = wait_status(client, reference, is_terminal, "terminal state")
    expect_identical(resumed, direct, "suspend -> evict -> resume")

    stats = client.ok({"cmd": "stats"})["stats"]
    if stats["evictions"] < 1 or stats["faults"] < 1:
        fail(f"stats did not count the eviction/fault: {stats}")
    print(f"check_service: suspend -> evict -> resume is bit-identical "
          f"({stats['evictions']} evictions, {stats['faults']} faults)")


def check_drain_restart(build_dir: str, sock_path: str, spill_dir: str,
                        daemon: subprocess.Popen, done_session: str,
                        done_status: dict, total_before: int) -> subprocess.Popen:
    client = Client(sock_path)
    spec = {**LONG_SPEC, "seed": 177}
    inflight = client.ok({"cmd": "submit", **spec})["session"]
    wait_status(client, inflight, lambda s: s.get("quanta", 0) >= 2, "progress")
    client.close()

    daemon.send_signal(signal.SIGTERM)
    if daemon.wait(timeout=60) != 0:
        fail(f"daemon exited {daemon.returncode} on SIGTERM")
    if not os.path.exists(os.path.join(spill_dir, f"{inflight}.session")):
        fail(f"drain wrote no manifest for in-flight session {inflight}")

    daemon = start_daemon(build_dir, sock_path, spill_dir)
    client = Client(sock_path)
    restored = client.ok({"cmd": "stats"})["stats"]["total_sessions"]
    if restored != total_before:
        fail(f"restart restored {restored} sessions, expected {total_before}")

    resumed = wait_status(client, inflight, is_terminal, "terminal state")
    reference = client.ok({"cmd": "submit", **spec})["session"]
    direct = wait_status(client, reference, is_terminal, "terminal state")
    expect_identical(resumed, direct, "SIGTERM drain + restart")

    preserved = client.ok({"cmd": "status", "session": done_session})
    expect_identical(preserved, done_status, "terminal session across restart")
    client.close()
    print("check_service: SIGTERM drain + restart resumed the in-flight "
          "session bit-identically and preserved terminal sessions")
    return daemon


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--sessions", type=int, default=1000)
    args = parser.parse_args()

    popctl = os.path.join(args.build_dir, "examples", "popctl")
    with tempfile.TemporaryDirectory(prefix="popproto_svc_") as work_dir:
        check_trace_run_signals(args.build_dir, work_dir)

        sock_path = os.path.join(work_dir, "pop.sock")
        spill_dir = os.path.join(work_dir, "spill")
        daemon = start_daemon(args.build_dir, sock_path, spill_dir)
        try:
            # The CLI client works end to end.
            ping = subprocess.run([popctl, "--socket", sock_path, "ping"],
                                  capture_output=True)
            if ping.returncode != 0 or b'"ok":true' not in ping.stdout:
                fail(f"popctl ping failed: {ping.stdout} {ping.stderr}")

            client = Client(sock_path)
            check_throughput(client, args.sessions)
            check_metrics_aggregate(client)
            check_malformed_submits(client)
            check_suspend_evict_resume(client, spill_dir)
            check_mid_session_subscribe(client, sock_path)

            # Remember one terminal session to verify restore preserves it.
            done_session = "s-1"
            done_status = client.ok({"cmd": "status", "session": done_session})
            total = client.ok({"cmd": "stats"})["stats"]["total_sessions"]
            client.close()

            daemon = check_drain_restart(args.build_dir, sock_path, spill_dir,
                                         daemon, done_session, done_status,
                                         total + 1)  # + the drain's in-flight run

            shutdown = subprocess.run([popctl, "--socket", sock_path, "shutdown"],
                                      capture_output=True)
            if shutdown.returncode != 0:
                fail(f"popctl shutdown failed: {shutdown.stdout} {shutdown.stderr}")
            if daemon.wait(timeout=60) != 0:
                fail(f"daemon exited {daemon.returncode} after shutdown")
        finally:
            if daemon.poll() is None:
                daemon.kill()
    print("check_service: OK")


if __name__ == "__main__":
    main()
