"""The SLO engine: exact histograms vs a sorted-list oracle, the
``repro-slo/1`` report, critical-path attribution, and the CLI.

The histogram properties are the load-bearing ones: ``quantile`` must
be the true nearest-rank percentile and ``merge`` must be lossless,
because the ``--workers N`` byte-identity guarantee is nothing but
those two properties composed.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.slo import (
    BLAME,
    SELF_BLAME,
    SLO_SCHEMA,
    SloSpec,
    _blame_index,
    _descends_from,
    attribute_request,
    collect_cell,
    effective_phase,
    percentile_oracle,
    summarize_latencies,
    validate_slo_report,
)
from repro.obs.slo_cli import slo_main
from repro.obs.slo_scenarios import SLO_SPECS, run_slo_scenario
from repro.obs.spans import PHASES, SpanCollector

values_lists = st.lists(st.integers(min_value=0, max_value=10**12),
                        min_size=1, max_size=200)
quantiles = st.one_of(st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False),
                      st.sampled_from([0.0, 0.5, 0.99, 0.999, 1.0]))


# ---------------------------------------------------------------------------
# Histogram vs oracle (satellite: exact quantile/merge)
# ---------------------------------------------------------------------------


class TestHistogramProperties:
    @given(values=values_lists, q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_quantile_matches_the_sorted_list_oracle(self, values, q):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.quantile(q) == percentile_oracle(values, q)

    @given(a=values_lists, b=values_lists, q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_merge_is_lossless(self, a, b, q):
        left, right, combined = (Histogram(n) for n in "lrc")
        for value in a:
            left.observe(value)
        for value in b:
            right.observe(value)
        for value in a + b:
            combined.observe(value)
        merged = left.merge(right)
        assert merged is left
        assert merged.quantile(q) == combined.quantile(q)
        assert merged.count == combined.count
        assert merged.total == combined.total
        assert merged.min_value == combined.min_value
        assert merged.max_value == combined.max_value

    def test_quantile_edge_cases(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        assert percentile_oracle([], 0.5) is None
        hist.observe(7)
        assert hist.quantile(0.0) == 7
        assert hist.quantile(1.0) == 7
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            percentile_oracle([1], -0.1)

    def test_summarize_latencies_uses_the_same_ranks(self):
        values = list(range(1, 1001))
        summary = summarize_latencies(values)
        assert summary == {"latency_p50_ns": 500,
                           "latency_p99_ns": 990,
                           "latency_p999_ns": 999}


# ---------------------------------------------------------------------------
# SloSpec
# ---------------------------------------------------------------------------


class TestSloSpec:
    def test_shipped_specs_are_well_formed(self):
        for name, spec in SLO_SPECS.items():
            assert spec.problems() == [], name

    def test_malformed_specs_are_caught(self):
        assert SloSpec("").problems()
        assert SloSpec("x", p99_ns=0).problems()
        assert SloSpec("x", p99_ns=-5).problems()
        assert SloSpec("x", availability=1.5).problems()
        assert any("non-decreasing" in p for p in
                   SloSpec("x", p50_ns=100, p99_ns=50).problems())

    def test_round_trips_through_dict(self):
        spec = SLO_SPECS["fig7"]
        again = SloSpec.from_dict(spec.as_dict())
        assert again.as_dict() == spec.as_dict()


# ---------------------------------------------------------------------------
# Attribution on a hand-built span tree
# ---------------------------------------------------------------------------


def _request_with_waits():
    c = SpanCollector()
    request = c.open("request", "gateway", 0)
    c.add("mve.ring-stall", "mve", 10, 30)
    c.close(request, 100)
    # A background quiesce overlapping [40, 90] of the request, not a
    # descendant: contributes its *overlap*, not its full duration.
    c.add("dsu.quiesce", "dsu", 40, 200, parent=None)
    return c, request


class TestAttribution:
    def test_dominant_wait_wins(self):
        c, request = _request_with_waits()
        attribution = attribute_request(request, c)
        assert attribution["blame"] == "quiesce-pause"
        assert attribution["blame_ns"] == 60  # overlap of [40, 100]
        assert attribution["breakdown"]["ring-stall"] == 20

    def test_unblamed_latency_is_self(self):
        c = SpanCollector()
        request = c.open("request", "gateway", 0)
        c.close(request, 50)
        attribution = attribute_request(request, c)
        assert attribution["blame"] == "self"
        assert attribution["blame_ns"] == 50

    def test_blame_table_never_names_the_umbrella(self):
        # dsu.update is the umbrella over quiesce+fork+xform; blaming it
        # too would double-count every pause.
        assert "dsu.update" not in BLAME

    def test_effective_phase_retags_requests_over_a_pause(self):
        c = SpanCollector()
        hit = c.open("request", "gateway", 0)
        c.close(hit, 100)
        c.add("dsu.quiesce", "dsu", 50, 80)
        miss = c.open("request", "gateway", 200)
        c.close(miss, 210)
        assert effective_phase(hit, c) == "quiesce-pause"
        assert effective_phase(miss, c) == "normal"


# ---------------------------------------------------------------------------
# The indexed cell reduction vs a direct per-request rescan
# ---------------------------------------------------------------------------
#
# The oracle is the direct O(requests x spans) reduction: every request
# rescans the cell for pause windows, and every violating request
# rescans it twice more for its descendants and its blameable waits.


def _oracle_effective_phase(request, collector):
    if request.end_ns is None:
        return request.phase
    for span in collector.spans:
        if span.kind in ("dsu.quiesce", "dsu.fork") \
                and span.overlap_ns(request.start_ns, request.end_ns) > 0:
            return "quiesce-pause"
    return request.phase


def _oracle_descendant_ids(request, collector):
    ids = {request.span_id}
    # Spans are appended in creation order, so one forward pass links
    # every descendant (a child is always created after its parent).
    for span in collector.spans:
        if span.parent_id in ids:
            ids.add(span.span_id)
    return ids


def _oracle_attribute_request(request, collector):
    assert request.end_ns is not None
    descendants = _oracle_descendant_ids(request, collector)
    breakdown = {}
    for span in collector.spans:
        category = BLAME.get(span.kind)
        if category is None or span.end_ns is None:
            continue
        if span.span_id in descendants:
            ns = span.end_ns - span.start_ns
        else:
            ns = span.overlap_ns(request.start_ns, request.end_ns)
        if ns > 0:
            breakdown[category] = breakdown.get(category, 0) + ns
    if not breakdown:
        latency = request.end_ns - request.start_ns
        return {"blame": SELF_BLAME, "blame_ns": latency,
                "breakdown": {}}
    blame = min(breakdown, key=lambda cat: (-breakdown[cat], cat))
    return {"blame": blame, "blame_ns": breakdown[blame],
            "breakdown": dict(sorted(breakdown.items()))}


def _oracle_collect_cell(collector, cell, spec):
    phase_values = {}
    violations = []
    requests = answered = 0
    for request in collector.request_spans():
        if request.end_ns is None:
            continue
        requests += 1
        if request.attrs.get("answered", True) \
                and not request.attrs.get("error"):
            answered += 1
        latency = request.end_ns - request.start_ns
        phase = _oracle_effective_phase(request, collector)
        values = phase_values.setdefault(phase, {})
        key = str(latency)
        values[key] = values.get(key, 0) + 1
        if spec.p99_ns is not None and latency > spec.p99_ns:
            attribution = _oracle_attribute_request(request, collector)
            violations.append({
                "cell": cell,
                "client": request.attrs.get("client", ""),
                "start_ns": request.start_ns,
                "latency_ns": latency,
                "budget_ns": spec.p99_ns,
                "phase": phase,
                "blame": attribution["blame"],
                "blame_ns": attribution["blame_ns"],
                "breakdown": attribution["breakdown"],
            })
    return {
        "cell": cell,
        "requests": requests,
        "answered": answered,
        "spans": len(collector.spans),
        "span_kinds": collector.kind_tally(),
        "phase_values": phase_values,
        "violations": violations,
    }


#: Requests, pauses, every blameable kind, and kinds nothing blames.
SPAN_KINDS = ["request", "dsu.quiesce", "dsu.fork", *sorted(BLAME),
              "dsu.update", "fleet.round"]
times = st.integers(min_value=0, max_value=120)
request_attrs = st.fixed_dictionaries({}, optional={
    "answered": st.booleans(), "error": st.booleans(),
    "client": st.sampled_from(["c0", "c1"])})


@st.composite
def span_collectors(draw):
    """A collector built from random open/close nesting, born-closed
    spans (parents dynamic, backward, forward, self or missing), phase
    changes, zero-length spans and spans left open."""
    c = SpanCollector()
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        op = draw(st.sampled_from(["open", "close", "add", "phase"]))
        if op == "open":
            c.open(draw(st.sampled_from(SPAN_KINDS)), "unit", draw(times))
        elif op == "close" and c.current is not None:
            span = c.current
            length = draw(st.integers(min_value=0, max_value=60))
            attrs = (draw(request_attrs) if span.kind == "request"
                     else {})
            c.close(span, span.start_ns + length, **attrs)
        elif op == "add":
            kind = draw(st.sampled_from(SPAN_KINDS))
            start = draw(times)
            length = draw(st.integers(min_value=0, max_value=60))
            parent = draw(st.one_of(
                st.none(),
                st.integers(min_value=1, max_value=c._next_id + 3),
                st.just(10**6)))
            attrs = draw(request_attrs) if kind == "request" else {}
            c.add(kind, "unit", start, start + length, parent=parent,
                  **attrs)
        elif op == "phase":
            c.set_phase(draw(st.sampled_from(PHASES)))
    return c


def _indexed_descendant_ids(request, collector):
    _, links = _blame_index(collector.spans)
    ids = {request.span_id}
    for position, span in enumerate(collector.spans):
        if _descends_from(request.span_id, position, span.parent_id,
                          links):
            ids.add(span.span_id)
    return ids


class TestIndexedCellMatchesTheRescan:
    @given(c=span_collectors(),
           p99_ns=st.one_of(st.none(), st.integers(min_value=0,
                                                   max_value=60)))
    @settings(max_examples=300, deadline=None)
    def test_all_four_reductions_match_the_oracle(self, c, p99_ns):
        for request in c.request_spans():
            assert effective_phase(request, c) \
                == _oracle_effective_phase(request, c)
            if request.end_ns is None:
                continue
            assert json.dumps(sorted(_indexed_descendant_ids(request, c))) \
                == json.dumps(sorted(_oracle_descendant_ids(request, c)))
            assert json.dumps(attribute_request(request, c)) \
                == json.dumps(_oracle_attribute_request(request, c))
        spec = SloSpec("unit", p99_ns=p99_ns)
        assert json.dumps(collect_cell(c, "unit", spec)) \
            == json.dumps(_oracle_collect_cell(c, "unit", spec))

    def test_a_parent_created_after_its_child_is_no_ancestor(self):
        c = SpanCollector()
        # Span 1 names span 3, a child of the request, as its parent
        # before span 3 exists.
        early = c.add("mve.ring-stall", "mve", 0, 500, parent=3)
        request = c.open("request", "gateway", 100)
        child = c.add("dsu.xform", "dsu", 100, 110)
        c.close(request, 200)
        assert child.span_id == 3 and child.parent_id == request.span_id
        # The transform counts in full; the forward-linked stall only by
        # its 100 ns overlap, not its 500 ns duration.
        assert early.span_id not in _oracle_descendant_ids(request, c)
        assert attribute_request(request, c) == {
            "blame": "ring-stall", "blame_ns": 100,
            "breakdown": {"ring-stall": 100, "transform": 10}}


class _CountingSpans(list):
    """A span list that counts the passes made over it."""

    def __init__(self, spans):
        super().__init__(spans)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _cell_passes(requests):
    c = SpanCollector()
    for index in range(requests):
        request = c.open("request", "gateway", index * 100)
        if index % 1000 == 0:
            c.add("mve.ring-stall", "mve", index * 100, index * 100 + 80)
        # Every 10th request blows the 50 ns budget.
        c.close(request, index * 100 + (90 if index % 10 == 0 else 20))
    c.add("dsu.quiesce", "dsu", 250, 400)
    c.spans = _CountingSpans(c.spans)
    cell = collect_cell(c, "unit", SloSpec("unit", p99_ns=50))
    assert cell["requests"] == requests
    assert len(cell["violations"]) == requests // 10
    return c.spans.passes


def test_collect_cell_passes_do_not_grow_with_requests():
    # Counts, not wall clock: a per-request rescan of the spans shows up
    # as passes that grow with the request count.
    small, large = _cell_passes(10), _cell_passes(10_000)
    assert small == large
    assert large <= 4


# ---------------------------------------------------------------------------
# The report: determinism, sharding byte-identity, validation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_fig7():
    return run_slo_scenario("fig7", seed=1, quick=True)


class TestReport:
    def test_report_validates_and_has_the_key_shape(self, quick_fig7):
        report = quick_fig7
        assert validate_slo_report(report) == []
        assert report["schema"] == SLO_SCHEMA
        assert report["requests"] > 0
        assert "quiesce-pause" in report["phases"]
        # The acceptance attribution: at least one violating request
        # blamed on the masked DSU pause.
        assert any(a["blame"] == "quiesce-pause"
                   for a in report["attributions"])
        # Worker count must never leak into the artifact.
        assert "workers" not in json.dumps(report)

    def test_report_is_deterministic(self, quick_fig7):
        again = run_slo_scenario("fig7", seed=1, quick=True)
        assert json.dumps(again, sort_keys=True) \
            == json.dumps(quick_fig7, sort_keys=True)

    def test_sharded_run_is_byte_identical(self, quick_fig7):
        sharded = run_slo_scenario("fig7", seed=1, quick=True, workers=2)
        assert json.dumps(sharded, sort_keys=True) \
            == json.dumps(quick_fig7, sort_keys=True)

    def test_tampering_is_caught(self, quick_fig7):
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["schema"] = "repro-slo/0"
        assert any("schema" in p for p in validate_slo_report(tampered))
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["requests"] += 1
        assert validate_slo_report(tampered)
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["phases"]["quiesce-pause"]["count"] = "many"
        assert validate_slo_report(tampered)
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["spec"]["p99_ns"] = -1
        assert validate_slo_report(tampered)
        assert validate_slo_report({}) != []

    def test_collect_cell_is_pickle_shaped(self):
        # Cells cross process boundaries under --workers: plain dicts
        # of str/int only, reconstructed into Histograms on merge.
        c, _ = _request_with_waits()
        cell = collect_cell(c, "unit", SloSpec("unit", p99_ns=10))
        assert cell["cell"] == "unit"
        assert cell["requests"] == 1
        assert cell["violations"][0]["blame"] == "quiesce-pause"
        json.dumps(cell)  # JSON-safe implies pickle-safe here


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_quick_run_writes_and_checks(self, tmp_path, capsys):
        out = tmp_path / "slo.json"
        spans = tmp_path / "spans.jsonl"
        code = slo_main(["fig7", "--quick", "--check",
                         "--out", str(out), "--spans", str(spans)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "schema ok" in stdout
        assert "quiesce-pause" in stdout
        report = json.loads(out.read_text())
        assert validate_slo_report(report) == []
        from repro.obs.spans import validate_span_file
        assert validate_span_file(str(spans)) == []

    def test_unknown_scenario_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            slo_main(["nosuch"])
        assert "invalid choice" in capsys.readouterr().err
