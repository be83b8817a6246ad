"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload redis-steady --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/``.
With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run.  The exit code is non-zero when any check fails.
See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

from layers import (CALIBRATION_REF_NS, LAYERS, LayerTracer,  # noqa: E402
                    RequestProbe, Segment, calibration_ns)
from workloads import ROUNDS, SIZES, Round  # noqa: E402

#: Fresh interpreters that time the imports, spread over the run;
#: ``setup_s`` takes their median.
IMPORT_PROBES = 15
#: Rounds every run makes at least, so the sim digest is compared.
MIN_ROUNDS = 2

_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                 "start = time.perf_counter(); import layers, workloads; "
                 "print(time.perf_counter() - start)")

END_TO_END_UNITS = {
    "vreq_per_s": "1/s", "host_req_p50_us": "us", "host_req_p99_us": "us",
    "setup_s": "s", "peak_rss_mib": "MiB", "sim_latency_us": "us",
    "sim_slo_availability": "ratio",
}


#: Every per-layer metric in report order, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **dict.fromkeys([
        "workloads.requests", "net.calls", "net.bytes",
        "mve.gateway.records_direct", "mve.gateway.records_replay",
        "servers.iterations_leader", "servers.iterations_follower",
        "mve.dsl.records", "mve.dsl.predicate_evals", "mve.dsl.rules_fired",
        "mve.ring.push_batches", "mve.ring.records", "mve.ring.stalls",
        "mve.ring.high_watermark", "mve.varan.leader_iterations",
        "mve.varan.replayed_iterations", "mve.varan.divergences",
        "core.updates", "core.update_failures", "dsu.forks",
        "dsu.transform_entries", "sim.charges", "syscalls.cost_evals",
        "obs.events", "obs.spans"], "count"),
    "mve.dsl.predicate_evals_per_record": "ratio",
    "mve.dsl.fire_ratio": "ratio",
    "core.update_pause_sim_us": "us",
    "sim.cpu_wait_sim_us": "us",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "other.self_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the program, at the
    reference machine speed."""
    before = calibration_ns()
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, HERE, SRC],
        check=True, capture_output=True, text=True, timeout=60)
    calibration = (before + calibration_ns()) / 2
    seconds = float(out.stdout.strip().splitlines()[-1])
    return seconds * CALIBRATION_REF_NS / calibration


@dataclass
class RoundRecord:
    """One round and what the instrumentation saw during it."""

    round: Round
    traced: bool
    counts: Dict[str, int] = field(default_factory=dict)
    self_ns: Dict[str, int] = field(default_factory=dict)


def _weighted_rank(points: List[Tuple[float, float]], q: float) -> float:
    """Nearest-rank quantile of sorted (value, weight) pairs."""
    target = q * sum(weight for _, weight in points) * (1 - 1e-12)
    total = 0.0
    for value, weight in points:
        total += weight
        if total >= target:
            return value
    return points[-1][0]


@dataclass
class Estimate:
    """Host throughput and request latency of a set of rounds, at the
    reference machine speed."""

    vreq_per_s: float
    request_p50_ns: float
    request_p99_ns: float
    #: Segments behind the estimate, and the requests they served.
    segments: int
    requests: int


def estimate(records: List[RoundRecord]) -> Estimate:
    """Each kind of segment contributes the median of its scaled timed
    phases to the rate, and all its request times, pooled, to the
    percentiles.

    Every segment counts.  Picking the fastest ones would favour those
    whose calibration happened to read the machine as slowest, so the
    pick, not the program, would set the figure on a disturbed host.
    """
    kinds: Dict[str, List[Segment]] = {}
    for record in records:
        for segment in record.round.segments:
            kinds.setdefault(segment.name, []).append(segment)
    requests = timed_ns = pooled = 0
    points: List[Tuple[float, float]] = []
    for segments in kinds.values():
        requests += segments[0].requests
        timed_ns += statistics.median(s.timed_ns * s.scale for s in segments)
        for segment in segments:
            pooled += segment.requests
            weight = segment.requests / len(segments) / len(segment.points)
            points.extend((point, weight) for point in segment.points)
    points.sort()
    return Estimate(requests / (timed_ns / 1e9), _weighted_rank(points, 0.50),
                    _weighted_rank(points, 0.99),
                    sum(len(segments) for segments in kinds.values()), pooled)


class Run:
    """The rounds of one invocation and what they measured."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.probe = RequestProbe()
        self.tracer = LayerTracer() if trace else None
        self.records: List[RoundRecord] = []
        #: Seconds each fresh interpreter spent importing the program.
        self.import_s: List[float] = []

    def one_round(self, size: Any, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
        self.probe.install()
        try:
            round_ = ROUNDS[self.workload](self.seed, size, self.probe)
        finally:
            self.probe.uninstall()
            if tracer is not None:
                tracer.uninstall()
        record = RoundRecord(round_, traced)
        if tracer is not None:
            record.counts = tracer.take_counts()
            record.self_ns = tracer.take_self_ns()
        self.records.append(record)

    def measure(self, seconds: float, size_name: str = "full",
                import_probes: int = IMPORT_PROBES) -> None:
        """Run rounds until ``seconds`` have passed (and at least
        :data:`MIN_ROUNDS`).  Import probes are spread evenly over the
        same time.  A traced run alternates untraced and traced rounds so
        both see the same machine conditions."""
        size = SIZES[self.workload][size_name]
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(self.records) >= MIN_ROUNDS and elapsed >= seconds:
                break
            if len(self.import_s) < import_probes and elapsed >= \
                    len(self.import_s) * seconds / import_probes:
                self.import_s.append(time_import())
            self.one_round(size, self.trace and len(self.records) % 2 == 1)
        while len(self.import_s) < import_probes:
            self.import_s.append(time_import())

    # -- results -----------------------------------------------------------

    def checks(self) -> Tuple[int, List[str]]:
        """Attempted operations and the problems found, digest included."""
        attempted = 0
        problems: List[str] = []
        first = self.records[0].round
        for index, record in enumerate(self.records):
            attempted += record.round.attempted
            problems.extend(f"round {index}: {problem}"
                            for problem in record.round.problems)
            if index == 0:
                continue
            attempted += 1
            if record.round.digest != first.digest:
                kind = "traced" if record.traced else "untraced"
                problems.append(f"round {index} ({kind}) sim digest "
                                f"{record.round.digest} differs from round "
                                f"0's {first.digest}")
        traced_counts = [r.counts for r in self.records if r.traced]
        for index, counts in enumerate(traced_counts[1:], start=1):
            attempted += 1
            if counts != traced_counts[0]:
                problems.append(f"traced round {index} counts differ from "
                                f"the first traced round's")
        return attempted, problems

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """The end-to-end metrics and, for timings, their sample counts."""
        best = estimate(self.records)
        sim = self.records[0].round.sim
        metrics = {
            "vreq_per_s": best.vreq_per_s,
            "host_req_p50_us": best.request_p50_ns / 1000,
            "host_req_p99_us": best.request_p99_ns / 1000,
            "setup_s": statistics.median(self.import_s)
            + statistics.median(sum(s.setup_ns * s.scale
                                    for s in r.round.segments)
                                for r in self.records) / 1e9,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_latency_us": sim["sim_latency_us"],
            "sim_slo_availability": sim["sim_slo_availability"],
        }
        samples = {"vreq_per_s": best.segments,
                   "host_req_p50_us": best.requests,
                   "host_req_p99_us": best.requests,
                   "setup_s": len(self.import_s) + len(self.records)}
        return metrics, samples

    def per_layer(self) -> Dict[str, float]:
        traced = [r for r in self.records if r.traced]
        untraced = [r for r in self.records if not r.traced]
        first = traced[0].round
        count = traced[0].counts.get
        metrics: Dict[str, float] = {
            name: count(name, 0) for name, unit in PER_LAYER_UNITS.items()
            if unit == "count"}
        records = count("mve.dsl.records", 0)
        evals = count("mve.dsl.predicate_evals", 0)
        metrics.update({
            "mve.dsl.predicate_evals_per_record":
                evals / records if records else 0.0,
            "mve.dsl.fire_ratio":
                count("mve.dsl.rules_fired", 0) / evals if evals else 0.0,
            "mve.ring.stalls": first.runtime["ring_stalls"],
            "mve.ring.high_watermark": first.runtime["ring_high_watermark"],
            "mve.varan.leader_iterations":
                first.runtime["leader_iterations"],
            "mve.varan.replayed_iterations":
                count("servers.iterations_follower", 0),
            "mve.varan.divergences": first.runtime["divergences"],
            "core.update_pause_sim_us": first.sim["sim_update_pause_us"],
            "sim.cpu_wait_sim_us": count("sim.cpu_wait_ns", 0) / 1000,
        })
        # Self time per traced round; other = round wall minus all spans.
        walls = [r.round.setup_ns + r.round.timed_ns for r in traced]
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = statistics.mean(
                r.self_ns[layer] for r in traced) / 1e6
        metrics["other.self_ms"] = statistics.mean(
            wall - sum(r.self_ns.values())
            for wall, r in zip(walls, traced)) / 1e6
        metrics["trace.wall_ms"] = statistics.mean(walls) / 1e6
        metrics["trace.overhead_ratio"] = (estimate(untraced).vreq_per_s
                                           / estimate(traced).vreq_per_s)
        return metrics


def _report(metrics: Dict[str, float], samples: Dict[str, int],
            units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        note = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"  {name:<38} {value:>16.6g} {unit}{note}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, bool(args.trace))
    run.measure(args.seconds, import_probes=0 if args.trace
                else IMPORT_PROBES)
    attempted, problems = run.checks()

    rounds = [record.round for record in run.records]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{sum(r.requests for r in rounds)} requests, "
          f"trace {args.trace}")
    if args.trace:
        metrics = _report(run.per_layer(), {}, PER_LAYER_UNITS)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        run.tracer.write_spans(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = _report(*run.end_to_end(), END_TO_END_UNITS)
    print(f"sim_digest {rounds[0].digest}")
    print(f"error_rate {len(problems) / attempted:.6g} "
          f"({len(problems)} of {attempted} checks failed)")
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
