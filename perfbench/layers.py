"""Outside-in instrumentation of the ``repro`` stack.

Nothing here edits ``src/``: every measurement comes from wrapping public
methods of ``repro`` classes (and two module-level functions) for the
length of one round, then putting the originals back.

* :class:`RequestProbe` is the only wrapper active in a measured run.  It
  times each ``VirtualClient.request`` call in host nanoseconds, notes the
  runtime each request was served by (the workloads read sim statistics
  off those runtimes afterwards), and remembers when the first request of
  a segment started, which is where set-up ends.  Runs of
  :func:`calibration_ns` before a segment, between its requests every
  :data:`CALIBRATION_INTERVAL_NS` and after it scale its host times to a
  reference machine speed.
* :class:`LayerTracer` is the traced run.  It records a span around every
  call into a layer boundary (name, start, end, parent, request id),
  derives each layer's self time (span duration minus the part covered by
  child spans), and counts the work each layer did at the same boundary.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import Mvedsua
from repro.dsu.kitsune import Kitsune
from repro.mve.dsl.rules import RewriteRule, RuleEngine
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.mve.ring_buffer import RingBuffer
from repro.mve.varan import VaranRuntime
from repro.net import VirtualKernel
import repro.obs.slo as slo_module
from repro.obs.spans import SpanCollector
from repro.obs.trace import Tracer
from repro.servers.base import Server
from repro.sim.process import CpuAccount
from repro.syscalls.costs import AppProfile
from repro.workloads.client import VirtualClient
from repro.workloads.memtier import MemtierSpec
from repro.workloads.openloop import OpenLoopGenerator
import repro.workloads.openloop_scenarios as openloop_module
from repro.workloads.pool import FlyweightPool

_MISSING = object()

#: Layers in report order; ``other`` is time no wrapper covers.
LAYERS = ("workloads", "net", "mve.gateway", "servers", "mve.dsl",
          "mve.ring", "mve.varan", "core", "dsu", "sim", "syscalls",
          "obs")

#: Spans kept in memory per run for the span file; later spans are
#: still timed and counted, only not written out.
SPAN_CAP = 20_000

#: Quantile points kept per segment of host request timings.
QUANTILE_POINTS = 1000

#: Host time between calibrations inside a segment.  Other tenants of a
#: shared host change its speed within a second, so calibrations only at
#: a segment's ends miss most of what happened inside it.
CALIBRATION_INTERVAL_NS = 50_000_000

#: What :func:`calibration_ns` takes on an undisturbed vCPU of a 2.0 GHz
#: Xeon host.  Host times are reported at that machine speed.
CALIBRATION_REF_NS = 3_200_000

#: Gateway calls that never produce a syscall record.
_GATEWAY_BOOKKEEPING = ("begin_iteration", "note_request",
                        "finish_iteration", "epoll_ctl")
_GATEWAY_SYSCALLS = ("epoll_wait", "connect", "listen", "accept", "read",
                     "write", "close", "fs_read", "fs_write", "fs_append",
                     "fs_unlink", "fs_rename", "fs_stat", "fs_mkdir",
                     "fs_rmdir", "fs_is_dir", "fs_listdir")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


def _server_classes() -> List[type]:
    """``Server`` and every loaded subclass, so overrides are wrapped too."""
    found, pending = [], [Server]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.value = b""

    def render(self) -> bytes:
        return b"%s=%s" % (self.key, self.value)


def calibration_ns(repeats: int = 3) -> int:
    """Best of ``repeats`` timings of a fixed pure-Python loop.

    The loop (dict lookups, small objects, bytes formatting) shares no
    code with the program, so it measures how fast the host runs Python
    right now and nothing else.  The garbage collector is paused while
    it runs: a collection of the program's heap would otherwise land in
    the loop now and then and read as a slow machine.
    """
    best = None
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            slots: Dict[bytes, _Slot] = {}
            rendered = []
            for index in range(6000):
                key = b"k%d" % (index % 257)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = _Slot(key)
                slot.value = slot.value[-8:] + b"x"
                rendered.append(slot.render())
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        if collecting:
            gc.enable()
    return best


@dataclass
class Segment:
    """A stretch of work of one kind: a Redis round, or one open-loop
    cell.  ``setup_ns`` and ``timed_ns`` are as measured, less the time
    spent calibrating; ``scale`` converts them to the reference machine
    speed."""

    name: str
    requests: int
    setup_ns: int
    timed_ns: int
    #: Host ns per request, at reference speed, at the 1/P, 2/P, ..., P/P
    #: quantiles (nearest rank), P = :data:`QUANTILE_POINTS`; enough to
    #: pool segments without keeping every sample.
    points: List[float]
    #: :data:`CALIBRATION_REF_NS` over the mean of the calibrations taken
    #: before, during and after the segment.
    scale: float


class RequestProbe:
    """Host timing of ``VirtualClient.request``; see the module docstring."""

    def __init__(self) -> None:
        #: Host ns per request since the last :meth:`begin_segment`.
        self.samples_ns = array("q")
        #: (requests timed before it, ns) for each calibration of the
        #: segment so far.
        self.calibrations: List[Tuple[int, int]] = []
        #: Host ns spent calibrating since the segment's first request.
        self.calibrating_ns = 0
        #: id -> runtime, for every runtime that served a request.
        self.runtimes: Dict[int, Any] = {}
        self.first_request_ns: Optional[int] = None
        self._last_calibration_ns = 0
        self._patches = Patches()

    def install(self) -> None:
        inner = VirtualClient.request
        samples = self.samples_ns
        runtimes = self.runtimes
        clock = time.perf_counter_ns
        probe = self

        def request(client, runtime, data, now):
            start = clock()
            result = inner(client, runtime, data, now)
            end = clock()
            samples.append(end - start)
            if id(runtime) not in runtimes:
                runtimes[id(runtime)] = runtime
            if probe.first_request_ns is None:
                probe.first_request_ns = start
            if end - probe._last_calibration_ns >= CALIBRATION_INTERVAL_NS:
                probe._calibrate_between_requests()
            return result

        self._patches.replace(VirtualClient, "request", request)

    def uninstall(self) -> None:
        self._patches.restore()

    def _calibrate_between_requests(self) -> None:
        start = time.perf_counter_ns()
        self.calibrations.append((len(self.samples_ns), calibration_ns(1)))
        self._last_calibration_ns = time.perf_counter_ns()
        self.calibrating_ns += self._last_calibration_ns - start

    def begin_segment(self) -> None:
        """Forget the previous segment, calibrate, and collect garbage so
        the interpreter's collector runs at the same points in every
        segment."""
        self.first_request_ns = None
        self.runtimes.clear()
        del self.samples_ns[:]
        self.calibrations = [(0, calibration_ns())]
        self.calibrating_ns = 0
        gc.collect()
        self._last_calibration_ns = time.perf_counter_ns()

    def segment(self, name: str, requests: int, setup_ns: int,
                timed_ns: int) -> Segment:
        """Close a segment: calibrate again and summarise its requests'
        host times, each scaled by the mean of the calibrations on either
        side of it.  ``timed_ns`` is the caller's clock, which ran on
        through the calibrations between requests."""
        calibrations = self.calibrations + [(len(self.samples_ns),
                                             calibration_ns())]
        scaled: List[float] = []
        for (begin, before), (end, after) in zip(calibrations,
                                                 calibrations[1:]):
            factor = 2 * CALIBRATION_REF_NS / (before + after)
            scaled.extend(sample * factor
                          for sample in self.samples_ns[begin:end])
        scaled.sort()
        count = len(scaled)
        points = [scaled[-(-index * count // QUANTILE_POINTS) - 1]
                  for index in range(1, QUANTILE_POINTS + 1)] if count else []
        scale = CALIBRATION_REF_NS / statistics.fmean(
            ns for _, ns in calibrations)
        return Segment(name, requests, setup_ns,
                       timed_ns - self.calibrating_ns, points, scale)

    def served_by(self) -> List[Any]:
        """Distinct runtimes seen, in first-use order."""
        return list(self.runtimes.values())


class LayerTracer:
    """Spans, self time and work counts per layer for traced rounds."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        #: (span id, parent id, layer, name, start ns, end ns, request id)
        self.spans: List[Tuple] = []
        self._stack: List[List[int]] = []
        self._next_span = 0
        self._next_request = 0
        self._patches = Patches()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable, *,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None,
              root: bool = False, materialize: bool = False) -> Callable:
        tracer = self
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            tracer._next_span += 1
            parent = stack[-1] if stack else None
            if root:
                tracer._next_request += 1
                request = tracer._next_request
            else:
                request = parent[2] if parent is not None else 0
            # [span id, ns covered by children, request id]
            frame = [tracer._next_span, 0, request]
            token = before(args) if before is not None else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0],
                                  parent[0] if parent is not None else 0,
                                  layer, name, start, end, request))
            if after is not None:
                after(args, result, token)
            return iter(result) if materialize else result

        return traced

    def _count_only(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _hook(self, owner: Any, layer: str, names, **options) -> None:
        for name in names:
            fn = getattr(owner, name)
            self._patches.replace(owner, name,
                                  self._wrap(layer, name, fn, **options))

    def install(self) -> None:
        counts = self.counts

        def tally(key: str) -> Callable:
            def after(args, result, token):
                counts[key] += 1
            return after

        # workloads: the root span, one request id per request.
        self._hook(VirtualClient, "workloads", ["request"], root=True,
                   after=tally("workloads.requests"))
        self._hook(MemtierSpec, "workloads", ["commands"], materialize=True)
        self._hook(OpenLoopGenerator, "workloads", ["events"],
                   materialize=True)
        self._hook(FlyweightPool, "workloads", ["assign"])

        # net: the virtual kernel.
        def net_read(args, result, token):
            counts["net.calls"] += 1
            counts["net.bytes"] += len(result)

        def net_write(args, result, token):
            counts["net.calls"] += 1
            counts["net.bytes"] += len(args[3])

        self._hook(VirtualKernel, "net", ["read"], after=net_read)
        self._hook(VirtualKernel, "net", ["write"], after=net_write)
        self._hook(VirtualKernel, "net",
                   ["epoll_wait", "accept", "connect", "close"],
                   after=tally("net.calls"))

        # mve.gateway: records emitted per call, split by role.
        def trace_size(args):
            return len(args[0].trace.records)

        def gateway_after(args, result, size_before):
            gateway = args[0]
            role = ("replay" if gateway.role is GatewayRole.REPLAY
                    else "direct")
            counts[f"mve.gateway.records_{role}"] += \
                len(gateway.trace.records) - size_before

        self._hook(SyscallGateway, "mve.gateway", _GATEWAY_SYSCALLS,
                   before=trace_size, after=gateway_after)
        self._hook(SyscallGateway, "mve.gateway", _GATEWAY_BOOKKEEPING)

        # servers: event-loop iterations, split by the gateway's role.
        def iteration(args, result, token):
            role = ("follower" if args[1].role is GatewayRole.REPLAY
                    else "leader")
            counts[f"servers.iterations_{role}"] += 1

        for cls in _server_classes():
            if "run_iteration" in vars(cls) or cls is Server:
                self._hook(cls, "servers", ["run_iteration"],
                           after=iteration)
            if "fork" in vars(cls) or cls is Server:
                self._hook(cls, "dsu", ["fork"], after=tally("dsu.forks"))

        # mve.dsl: records in, predicate evaluations, rules fired.
        def fired_so_far(args):
            return len(args[0].fired)

        def engine_after(args, result, fired_before):
            counts["mve.dsl.rules_fired"] += len(args[0].fired) - fired_before

        def offer_after(args, result, fired_before):
            counts["mve.dsl.records"] += 1
            engine_after(args, result, fired_before)

        self._hook(RuleEngine, "mve.dsl", ["offer"], before=fired_so_far,
                   after=offer_after)
        self._hook(RuleEngine, "mve.dsl", ["flush"], before=fired_so_far,
                   after=engine_after)
        self._hook(RuleEngine, "mve.dsl", ["take_ready"])
        self._patches.replace(
            RewriteRule, "matches_prefix",
            self._count_only(RewriteRule.matches_prefix,
                             "mve.dsl.predicate_evals"))

        # mve.ring: batches and records pushed.
        def pushed(args, result, token):
            counts["mve.ring.push_batches"] += 1
            counts["mve.ring.records"] += 1

        def pushed_many(args, result, token):
            counts["mve.ring.push_batches"] += 1
            counts["mve.ring.records"] += len(args[1])

        self._hook(RingBuffer, "mve.ring", ["push"], after=pushed)
        self._hook(RingBuffer, "mve.ring", ["push_many"], after=pushed_many)
        self._hook(RingBuffer, "mve.ring", ["pop", "pop_many"])

        self._hook(VaranRuntime, "mve.varan",
                   ["pump", "drain_follower", "fork_follower", "promote",
                    "finalize"])

        # core: update requests and the ones that failed.
        def update_after(args, result, token):
            counts["core.updates"] += 1
            if not result.ok:
                counts["core.update_failures"] += 1

        self._hook(Mvedsua, "core", ["request_update"], after=update_after)
        self._hook(Mvedsua, "core", ["rollback"],
                   after=tally("core.update_failures"))
        self._hook(Mvedsua, "core", ["pump", "promote", "finalize"])

        # dsu: heap entries the state transformer walked.
        def transformed(args, result, token):
            counts["dsu.transform_entries"] += result[2]

        self._hook(Kitsune, "dsu", ["transform"], after=transformed)
        self._hook(Kitsune, "dsu", ["quiesce", "apply_update"])

        # sim: CPU charges and the virtual time work queued for a core.
        def charge_before(args):
            cpu, arrival = args[0], args[1]
            return max(0, cpu.busy_until - arrival)

        def charged(args, result, wait_ns):
            counts["sim.charges"] += 1
            counts["sim.cpu_wait_ns"] += wait_ns

        self._hook(CpuAccount, "sim", ["charge"], before=charge_before,
                   after=charged)
        self._hook(CpuAccount, "sim", ["block_until"])

        self._hook(AppProfile, "syscalls", ["iteration_cost_ns"],
                   after=tally("syscalls.cost_evals"))

        # obs: the program's own trace events and spans, and the SLO
        # reduction.  Trace hooks run inside kernel and gateway calls, so
        # without these spans their cost would read as net and gateway time.
        self._hook(Tracer, "obs", ["emit"], after=tally("obs.events"))
        self._hook(Tracer, "obs",
                   [name for name in vars(Tracer) if name.startswith("on_")])
        self._hook(SpanCollector, "obs", ["open", "add"],
                   after=tally("obs.spans"))
        self._hook(SpanCollector, "obs", ["close"])
        collect = self._wrap("obs", "collect_cell", slo_module.collect_cell)
        self._patches.replace(slo_module, "collect_cell", collect)
        self._patches.replace(openloop_module, "collect_cell", collect)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results -----------------------------------------------------------

    def take_counts(self) -> Dict[str, int]:
        """The counts since the last call, then reset them."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def take_self_ns(self) -> Dict[str, int]:
        """Self time per layer since the last call, then reset it."""
        totals = dict(self.self_ns)
        for layer in self.self_ns:
            self.self_ns[layer] = 0
        return totals

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (header first)."""
        keys = ("id", "parent", "layer", "name", "start_ns", "end_ns",
                "request")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.spans),
                                     "cap": SPAN_CAP}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
