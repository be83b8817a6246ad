"""The benchmark's three workloads, each run as repeatable rounds.

A round builds a fresh stack from the seed (set-up), serves the workload
(the timed phase), then checks every output against an oracle that does
not share code with the server (untimed).  Rounds of one seed are
identical in virtual time, so each round's sim digest must match the
first one's; see ``NOTES.md`` for why these workloads were chosen.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import Mvedsua
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.perf.scenarios import rule_heavy_catalog
from repro.servers.native import NativeRuntime
from repro.servers.redis import (RedisServer, redis_rules, redis_transforms,
                                 redis_version)
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient
from repro.workloads.memtier import MemtierSpec
from repro.workloads.openloop_scenarios import (CELLS, OPENLOOP_SPECS,
                                                build_openloop_report,
                                                run_openloop_cell,
                                                validate_openloop_report)

from layers import Segment

#: Round sizes.  "full" is what the benchmark measures; "tiny" keeps the
#: same shape for the benchmark's own tests.
SIZES = {
    "redis-steady": {"full": 20_000, "tiny": 200},
    "redis-mve-rules": {"full": 5_000, "tiny": 200},
    "kvstore-openloop-upgrade": {"full": False, "tiny": True},
}

#: Ring large enough that the rule workload never stalls the leader;
#: the same capacity the superseded perf scenarios used.
RING_CAPACITY = 1 << 14


class Oracle:
    """Counts each check made and keeps the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


@dataclass
class Round:
    """What one round did, in host time and in virtual time."""

    requests: int
    setup_ns: int
    timed_ns: int
    #: The timed phase split by kind of work, with request timings.
    segments: List[Segment]
    #: The virtual-time outcome: every ``sim_*`` value is a pure
    #: function of the seed.
    sim: Dict[str, float]
    digest: str
    #: Per-round statistics read off the runtimes after the round.
    runtime: Dict[str, int]
    attempted: int
    problems: List[str] = field(default_factory=list)


def _clock() -> int:
    return time.perf_counter_ns()


def _interpolated_p99(counts: Dict[Any, int]) -> float:
    """99th percentile of a latency -> count table, interpolated
    between the two nearest samples."""
    sample = sorted(int(value) for value, count in counts.items()
                    for _ in range(count))
    return statistics.quantiles(sample, n=100, method="inclusive")[98]


def _varan(runtime: Any) -> Optional[VaranRuntime]:
    """The MVE runtime inside ``runtime``, if it has one."""
    if isinstance(runtime, Mvedsua):
        return runtime.runtime
    return runtime if isinstance(runtime, VaranRuntime) else None


def _served_version(runtime: Any) -> str:
    if isinstance(runtime, Mvedsua):
        return runtime.current_version
    if isinstance(runtime, VaranRuntime):
        return runtime.leader.version_name
    return runtime.server.version.name


def _runtime_stats(runtimes: List[Any]) -> Dict[str, int]:
    stats = {"ring_stalls": 0, "ring_high_watermark": 0,
             "leader_iterations": 0, "divergences": 0}
    for runtime in runtimes:
        if isinstance(runtime, NativeRuntime):
            stats["leader_iterations"] += len(runtime.completions)
        varan = _varan(runtime)
        if varan is None:
            continue
        stats["ring_stalls"] += varan.ring_stalls
        stats["ring_high_watermark"] = max(stats["ring_high_watermark"],
                                           varan.ring.high_watermark)
        stats["leader_iterations"] += len(varan.completions)
        stats["divergences"] += sum(1 for event in varan.events
                                    if event.kind == "divergence")
    return stats


def _timeline(runtimes: List[Any]) -> List[Any]:
    """Fired rules, ring stalls and the update timeline of each runtime."""
    out: List[Any] = []
    for runtime in runtimes:
        varan = _varan(runtime)
        entry: Dict[str, Any] = {"version": _served_version(runtime)}
        if varan is not None:
            entry["rules_fired"] = varan.rules_fired
            entry["ring_stalls"] = varan.ring_stalls
            entry["events"] = [(e.at, e.kind, e.detail)
                               for e in varan.events]
        if isinstance(runtime, Mvedsua):
            entry["history"] = [asdict(t) for t in runtime.history]
        out.append(entry)
    return out


def sim_digest(material: Any) -> str:
    """SHA-256 over a canonical JSON encoding of the virtual outcome."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The oracle for the Redis workloads: a dict model of the keyspace
# ---------------------------------------------------------------------------

def redis_model_replies(commands: List[bytes]) -> List[bytes]:
    """The reply Redis owes each inline GET/SET, from a plain dict."""
    store: Dict[bytes, bytes] = {}
    replies = []
    for command in commands:
        verb, key, *value = command.rstrip(b"\r\n").split(b" ", 2)
        if verb == b"SET":
            store[key] = value[0]
            replies.append(b"+OK\r\n")
        elif verb == b"GET":
            found = store.get(key)
            replies.append(b"$-1\r\n" if found is None
                           else b"$%d\r\n%s\r\n" % (len(found), found))
        else:
            raise ValueError(f"the model knows no {verb!r} command")
    return replies


def _check_replies(commands: List[bytes], replies: List[bytes],
                   oracle: Oracle) -> None:
    """One check per request: a wrong or missing reply fails it."""
    expected = redis_model_replies(commands)
    oracle.attempted += len(expected)
    for index, want in enumerate(expected):
        got = replies[index] if index < len(replies) else None
        if got != want:
            oracle.problems.append(f"request {index} ({commands[index]!r}):"
                                   f" reply {got!r}, model says {want!r}")


def _serve(client: VirtualClient, runtime: Any,
           commands: List[bytes]) -> tuple:
    """Closed loop on one connection: each request waits for the last."""
    now = 0
    replies = []
    for command in commands:
        reply, now = client.request(runtime, command, now + 1)
        replies.append(reply)
    return replies, now


def _redis_sim(latencies: List[int], pause_ns: int) -> Dict[str, float]:
    """Virtual outcome of a closed-loop Redis round.

    The latency is the mean: a request's virtual latency depends only on
    its kind (GET hit, GET miss, SET), so every percentile is one of a
    few fixed values for any seed, and only the mean follows the mix.
    """
    budget = OPENLOOP_SPECS["redis"][1].p99_ns
    within = sum(1 for value in latencies if value <= budget)
    return {"sim_latency_us": statistics.fmean(latencies) / 1000,
            "sim_slo_availability": within / len(latencies),
            "sim_update_pause_us": pause_ns / 1000}


def redis_steady_round(seed: int, size: int, probe) -> Round:
    """Memtier 90/10 on Redis 2.0.0: one leader, no follower, no update."""
    probe.begin_segment()
    start = _clock()
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0", hmget_bug=False))
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["redis"],
                           ring_capacity=RING_CAPACITY)
    client = VirtualClient(kernel, server.address)
    commands = list(MemtierSpec().commands(size, protocol="redis",
                                           seed=seed))
    ready = _clock()
    replies, _ = _serve(client, runtime, commands)
    done = _clock()

    runtimes = probe.served_by()
    oracle = Oracle()
    _check_replies(commands, replies, oracle)
    stats = _runtime_stats(runtimes)
    oracle.expect(stats["divergences"] == 0,
                  f"{stats['divergences']} divergences")
    latencies = client.latencies_ns
    segment = probe.segment("requests", len(commands), ready - start,
                            done - ready)
    return Round(
        requests=len(commands), setup_ns=segment.setup_ns,
        timed_ns=segment.timed_ns, segments=[segment],
        sim=_redis_sim(latencies, 0),
        digest=sim_digest([latencies, _timeline(runtimes)]),
        runtime=stats, attempted=oracle.attempted,
        problems=oracle.problems)


def redis_mve_rules_round(seed: int, size: int, probe) -> Round:
    """Memtier 90/10 while a 2.0.0 -> 2.0.1 update sits in the
    outdated-leader stage behind a 120-rule catalogue; the timed phase
    ends with promote and finalize."""
    probe.begin_segment()
    start = _clock()
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0", hmget_bug=False))
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["redis"],
                      transforms=redis_transforms(),
                      ring_capacity=RING_CAPACITY)
    client = VirtualClient(kernel, server.address)
    catalog = rule_heavy_catalog(base=redis_rules("2.0.0", "2.0.1"))
    attempt = mvedsua.request_update(
        redis_version("2.0.1", hmget_bug=False), 0, rules=catalog)
    pause_ns = mvedsua.runtime.leader.cpu.busy_until
    commands = list(MemtierSpec().commands(size, protocol="redis",
                                           seed=seed))
    ready = _clock()
    replies, now = _serve(client, mvedsua, commands) if attempt.ok \
        else ([], 0)
    if attempt.ok:
        mvedsua.finalize(mvedsua.promote(now + 1) + 1)
    done = _clock()

    runtimes = probe.served_by()
    oracle = Oracle()
    oracle.expect(attempt.ok, f"update failed: {attempt.reason}")
    _check_replies(commands, replies, oracle)
    stats = _runtime_stats(runtimes)
    oracle.expect(stats["divergences"] == 0,
                  f"{stats['divergences']} divergences")
    outcome = mvedsua.last_outcome()
    oracle.expect(outcome is not None and outcome.t6_finalized is not None
                  and outcome.rolled_back_at is None,
                  f"update did not finalize: {outcome}")
    oracle.expect(mvedsua.current_version == "2.0.1",
                  f"serving {mvedsua.current_version} after finalize, "
                  f"expected 2.0.1")
    # The follower issues each SET's AOF append before its reply, so the
    # one genuine rule fires once per SET and the padding never does.
    sets = sum(1 for command in commands if command.startswith(b"SET "))
    fired = mvedsua.runtime.rules_fired
    oracle.expect(fired == ["aof_order"] * sets,
                  f"{len(fired)} rules fired, expected aof_order once per "
                  f"SET ({sets})")
    latencies = client.latencies_ns
    segment = probe.segment("requests", len(commands), ready - start,
                            done - ready)
    return Round(
        requests=len(commands), setup_ns=segment.setup_ns,
        timed_ns=segment.timed_ns, segments=[segment],
        sim=_redis_sim(latencies, pause_ns),
        digest=sim_digest([latencies, _timeline(runtimes)]),
        runtime=stats, attempted=oracle.attempted,
        problems=oracle.problems)


# ---------------------------------------------------------------------------
# The open-loop kvstore upgrade: the ``repro openloop kvstore`` report
# ---------------------------------------------------------------------------

OPENLOOP_SCENARIO = "kvstore"
#: The cell whose virtual figures are reported: the paper's headline.
HEADLINE_CELL = "mvedsua-open"
#: The version the restart and Mvedsua cells must end on.
KVSTORE_NEW_VERSION = "2.0"


def kvstore_openloop_round(seed: int, quick: bool, probe) -> Round:
    """The six cells of the kvstore open-loop scenario, serially.

    Set-up is each cell's work before its first request (stack, heap
    preload, arrival generation); the rest of the cell is timed.
    """
    summaries = []
    segments = []
    cells = []
    for index, (name, mode, _) in enumerate(CELLS):
        probe.begin_segment()
        start = _clock()
        summary = run_openloop_cell(OPENLOOP_SCENARIO, index, seed, quick)
        done = _clock()
        summaries.append(summary)
        if name == HEADLINE_CELL:
            headline_window = summary["window_values"]
        segments.append(probe.segment(
            name, summary["requests"], probe.first_request_ns - start,
            done - probe.first_request_ns))
        cells.append((name, mode, probe.served_by()))
    start = _clock()
    report = build_openloop_report(OPENLOOP_SCENARIO, seed, quick,
                                   summaries)
    report_ns = _clock() - start

    oracle = Oracle()
    problems = validate_openloop_report(report)
    oracle.expect(not problems, f"report problems: {problems}")
    for check in report["checks"]:
        oracle.expect(check["ok"], f"check {check['check']} failed")
    rows = {row["cell"]: row for row in report["cells"]}
    runtimes = []
    for name, mode, served in cells:
        runtimes.extend(served)
        row = rows[name]
        # One check per request: each one left unanswered fails.
        oracle.attempted += row["requests"]
        oracle.problems.extend(
            [f"{name}: {row['answered']} of {row['requests']} requests "
             f"answered"] * (row["requests"] - row["answered"]))
        if mode in ("restart", "mvedsua"):
            versions = [_served_version(runtime) for runtime in served]
            oracle.expect(versions == [KVSTORE_NEW_VERSION],
                          f"{name}: serving {versions} after the update, "
                          f"expected {KVSTORE_NEW_VERSION}")
        if mode == "mvedsua":
            outcomes = [runtime.last_outcome() for runtime in served]
            oracle.expect(all(outcome is not None
                              and outcome.t6_finalized is not None
                              and outcome.rolled_back_at is None
                              for outcome in outcomes),
                          f"{name}: update did not finalize")
    stats = _runtime_stats(runtimes)
    oracle.expect(stats["divergences"] == 0,
                  f"{stats['divergences']} divergences")

    headline = rows[HEADLINE_CELL]
    material = {"report": report,
                "values": [(s["values"], s["window_values"])
                           for s in summaries],
                "timeline": _timeline(runtimes)}
    requests = sum(row["requests"] for row in report["cells"])
    return Round(
        requests=requests,
        setup_ns=sum(segment.setup_ns for segment in segments),
        timed_ns=sum(segment.timed_ns for segment in segments) + report_ns,
        segments=segments,
        # The whole cell's p99 swings by a fifth from seed to seed (it
        # falls among the ~60 arrivals queued behind the fork pause); the
        # p99 of the arrivals during the update window is the in-band
        # stall clients see.  Interpolated, it follows the arrival gaps
        # at the window's tail instead of reading the longest stall.
        sim={"sim_latency_us": _interpolated_p99(headline_window) / 1000,
             "sim_slo_availability": headline["slo_availability"],
             "sim_update_pause_us": headline["pause_ns"] / 1000},
        digest=sim_digest(material), runtime=stats,
        attempted=oracle.attempted, problems=oracle.problems)


ROUNDS: Dict[str, Callable[[int, Any, Any], Round]] = {
    "redis-steady": redis_steady_round,
    "redis-mve-rules": redis_mve_rules_round,
    "kvstore-openloop-upgrade": kvstore_openloop_round,
}
