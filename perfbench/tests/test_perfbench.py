"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench/tests -q

Each workload runs on two seeds.  The oracle must pass, the sim digest
must repeat across runs and between traced and untraced rounds, and every
per-layer count must repeat exactly for a seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.workloads import VirtualClient  # noqa: E402

WORKLOADS = sorted(workloads.ROUNDS)
SEEDS = (1, 2)


def _traced_run(workload, seed):
    bench = run.Run(workload, seed, trace=True)
    bench.measure(0, "tiny", import_probes=0)
    return bench


@pytest.fixture(scope="module")
def runs():
    """Two traced runs (one untraced + one traced round each) per
    workload and seed."""
    return {(workload, seed): [_traced_run(workload, seed) for _ in "ab"]
            for workload in WORKLOADS for seed in SEEDS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_passes_and_digest_repeats(runs, workload, seed):
    first, second = runs[workload, seed]
    for bench in (first, second):
        attempted, problems = bench.checks()
        assert problems == []
        assert attempted > 0
        assert [r.traced for r in bench.records] == [False, True]
    digests = {r.round.digest for bench in (first, second)
               for r in bench.records}
    assert len(digests) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_layer_counts_repeat_exactly(runs, workload, seed):
    first, second = (bench.per_layer() for bench in runs[workload, seed])
    units = run.PER_LAYER_UNITS
    assert set(first) == set(units)
    for name, unit in units.items():
        if unit == "count" or name in ("mve.dsl.predicate_evals_per_record",
                                       "mve.dsl.fire_ratio",
                                       "core.update_pause_sim_us",
                                       "sim.cpu_wait_sim_us"):
            assert first[name] == second[name], name


def test_seeds_give_different_inputs(runs):
    for workload in WORKLOADS:
        digests = {runs[workload, seed][0].records[0].round.digest
                   for seed in SEEDS}
        assert len(digests) == len(SEEDS), workload


@pytest.mark.parametrize("seed", SEEDS)
def test_redis_steady_bypasses_mve_layers(runs, seed):
    metrics = runs["redis-steady", seed][0].per_layer()
    for name, unit in run.PER_LAYER_UNITS.items():
        if unit == "count" and name.split(".")[0] in ("dsu", "obs") \
                or name.startswith(("mve.dsl.", "mve.ring.")):
            assert metrics[name] == 0, name
    assert metrics["mve.gateway.records_replay"] == 0
    assert metrics["servers.iterations_follower"] == 0
    assert metrics["mve.gateway.records_direct"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_rule_workload_crosses_the_rule_engine(runs, seed):
    metrics = runs["redis-mve-rules", seed][0].per_layer()
    assert metrics["mve.dsl.records"] == metrics["mve.ring.records"] - 1
    assert 8 < metrics["mve.dsl.predicate_evals_per_record"] < 12
    assert metrics["mve.dsl.rules_fired"] > 0
    assert metrics["core.updates"] == 1
    assert metrics["core.update_failures"] == 0
    assert metrics["obs.spans"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_openloop_exercises_dsu_and_obs(runs, seed):
    metrics = runs["kvstore-openloop-upgrade", seed][0].per_layer()
    assert metrics["dsu.transform_entries"] > 0
    assert metrics["obs.spans"] > 0
    assert metrics["core.update_pause_sim_us"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_wall_time(runs, workload):
    metrics = runs[workload, 1][0].per_layer()
    covered = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    assert metrics["other.self_ms"] >= 0
    assert covered + metrics["other.self_ms"] == \
        pytest.approx(metrics["trace.wall_ms"])


def test_wrappers_are_removed_after_each_round(runs):
    assert VirtualClient.request.__qualname__ == "VirtualClient.request"
    assert "run_iteration" not in vars(workloads.RedisServer)


def _record(timed_ns, base):
    segment = layers.Segment("requests", 1000, 0, timed_ns,
                             [base + i for i in range(1, 1001)], 1.0)
    return run.RoundRecord(workloads.Round(
        requests=1000, setup_ns=0, timed_ns=timed_ns, segments=[segment],
        sim={}, digest="", runtime={}, attempted=0), traced=False)


def test_estimate_takes_the_median_rate_and_pools_every_segment():
    # The rate comes from the median timed phase, 2 s; the percentiles
    # from request times 1..1000, 101..1100 and 201..1200, pooled.
    records = [_record(10**9 * seconds, base)
               for seconds, base in ((1, 0), (6, 200), (2, 100))]
    best = run.estimate(records)
    assert best.vreq_per_s == pytest.approx(1000 / 2)
    assert best.request_p50_ns == 600
    assert best.request_p99_ns == 1170
    assert (best.segments, best.requests) == (3, 3000)


def test_probe_scales_each_request_by_the_calibrations_around_it(
        monkeypatch):
    ref = layers.CALIBRATION_REF_NS
    # The host runs at reference speed for two requests, then at half.
    monkeypatch.setattr(layers, "calibration_ns", lambda repeats=3: 2 * ref)
    probe = layers.RequestProbe()
    probe.samples_ns.extend([90, 90, 100, 100])
    probe.calibrations = [(0, ref), (2, 2 * ref)]
    probe.calibrating_ns = 100
    segment = probe.segment("requests", 4, 0, 1000)
    assert segment.timed_ns == 900
    assert segment.scale == pytest.approx(3 / 5)
    assert sorted(set(segment.points)) == pytest.approx([50, 60])


def test_model_replies():
    commands = [b"GET a\r\n", b"SET a xy\r\n", b"GET a\r\n", b"GET b\r\n"]
    assert workloads.redis_model_replies(commands) == [
        b"$-1\r\n", b"+OK\r\n", b"$2\r\nxy\r\n", b"$-1\r\n"]


def test_interpolated_p99_falls_between_the_nearest_samples():
    # 100 samples: the 99th percentile sits a hundredth of the way from
    # the 99th to the 100th.
    assert workloads._interpolated_p99({"10": 99, "20": 1}) == \
        pytest.approx(10.1)


def test_oracle_counts_wrong_and_missing_replies():
    commands = [b"SET a 1\r\n", b"GET a\r\n", b"GET a\r\n"]
    oracle = workloads.Oracle()
    workloads._check_replies(commands, [b"+OK\r\n", b"$1\r\n2\r\n"], oracle)
    assert oracle.attempted == 3
    assert len(oracle.problems) == 2


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, kind):
    out = _cli(ROOT, "--workload", "redis-steady", "--seed", "3",
               "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _declared(kind)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _cli(tmp_path, "--workload", "redis-steady", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
