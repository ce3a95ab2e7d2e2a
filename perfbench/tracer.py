"""Span tracing from outside the program: wrappers around each layer's calls.

:class:`Tracer` replaces the public callables listed in :data:`TARGETS` with
wrappers that record one span per call — name, start, end, parent span and,
where the call carries one, the transaction id — into in-memory lists.
Nothing inside ``src/`` changes; the wrappers are installed on the classes
before the traced objects are built and removed again by :meth:`Tracer.uninstall`.

The program rebinds some of these callables per instance, and the tracer
follows each rebinding:

* ``Scheduler.__init__`` binds the backend's fused ``submit`` as an instance
  attribute (and ``recover_site`` builds a fresh scheduler);
* ``TransactionRouter._rebind_submit`` binds the single-site fast submit at
  construction, reset and recovery.

Both are hooked so the new instance attribute is wrapped as it appears.
Class-level wrappers cover everything looked up through the class at call
time, which includes the ``DependencyGraph`` that ``Scheduler.reset`` swaps in.

A call that re-enters a span of the same name (the fast submit falling back
to the general one, a subclass calling its base) is not recorded again, so
``*_calls`` counts calls into the layer, not frames.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TARGETS",
    "Tracer",
    "layer_metrics",
    "layer_table",
    "self_times",
    "span_totals",
]

#: ``(module, class, attribute, span name, transaction-id argument index)``.
#: The attribute is wrapped on the class and on every subclass that defines
#: it; the index counts ``self`` as argument 0 (``None``: no id recorded).
TARGETS: Tuple[Tuple[str, str, str, str, Optional[int]], ...] = (
    ("repro.sim.engine", "EventEngine", "run_until_stop", "engine.segment", None),
    ("repro.sim.workload", "Workload", "next_transaction", "workload.next", None),
    ("repro.sim.resources", "ResourceDomain", "perform_step", "resources.step", None),
    ("repro.distributed.router", "TransactionRouter", "begin", "router.begin", None),
    ("repro.distributed.router", "TransactionRouter", "submit", "router.submit", 1),
    ("repro.distributed.router", "TransactionRouter", "commit", "router.commit", 1),
    ("repro.core.scheduler", "Scheduler", "submit", "scheduler.submit", None),
    ("repro.core.scheduler", "Scheduler", "commit", "scheduler.commit", None),
    ("repro.core.dependency_graph", "DependencyGraph", "creates_cycle", "graph.creates_cycle", None),
    ("repro.distributed.cycles", "UnionCycleDetector", "closes_cycle", "cycles.check", 1),
    ("repro.distributed.cycles", "UnionCycleDetector", "sweep", "cycles.sweep", None),
    ("repro.distributed.cycles", "UnionCycleDetector", "find_cycle_through", "cycles.certify", 1),
    ("repro.distributed.replication", "ReplicationProtocol", "select_read", "replication.select", None),
    ("repro.distributed.replication", "ReplicationProtocol", "select_write", "replication.select", None),
    ("repro.distributed.commit", "CommitProtocol", "commit", "commit.protocol", None),
    ("repro.distributed.router", "TransactionRouter", "fail_site", "site.fail", None),
    ("repro.distributed.router", "TransactionRouter", "recover_site", "site.recover", None),
    ("repro.sim.simulator", "Simulation", "__init__", "experiments.build", None),
    ("repro.sim.simulator", "Simulation", "reset", "experiments.reset", None),
)

#: Span record fields, in order.
FIELDS = ("name", "start_ns", "end_ns", "parent", "gtid")


def _classes_defining(base: type, attribute: str) -> List[type]:
    """``base`` and its subclasses, each one that defines ``attribute`` itself."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop(0)
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@dataclass
class Tracer:
    """In-memory span recorder; records only while :attr:`active`."""

    active: bool = False
    #: Span records ``[name, start_ns, end_ns, parent index or -1, gtid]``.
    spans: List[list] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _patched: List[Tuple[type, str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, function: Callable, name: str, gtid_index: Optional[int] = None) -> Callable:
        """A span-recording wrapper around ``function``."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (stack and spans[stack[-1]][0] == name):
                return function(*args, **kwargs)
            index = len(spans)
            gtid = args[gtid_index] if gtid_index is not None and len(args) > gtid_index else None
            record = [name, 0, 0, stack[-1] if stack else -1, gtid]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__perfbench_span__ = name  # type: ignore[attr-defined]
        return traced

    def _patch(self, owner: type, attribute: str, replacement: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target, plus the two per-instance rebinding points."""
        if self._patched:
            return
        for module_name, class_name, attribute, name, gtid_index in TARGETS:
            base = getattr(importlib.import_module(module_name), class_name)
            for owner in _classes_defining(base, attribute):
                self._patch(owner, attribute, self.wrap(owner.__dict__[attribute], name, gtid_index))
        from repro.core.scheduler import Scheduler
        from repro.distributed.router import TransactionRouter

        self._patch(Scheduler, "__init__", self._after(Scheduler.__init__, "scheduler.submit", None))
        self._patch(
            TransactionRouter,
            "_rebind_submit",
            self._after(TransactionRouter._rebind_submit, "router.submit", 0),
        )

    def _after(self, method: Callable, name: str, gtid_index: Optional[int]) -> Callable:
        """Run ``method``, then wrap the ``submit`` it bound on the instance."""
        tracer = self

        @functools.wraps(method)
        def rebinding(instance: Any, *args: Any, **kwargs: Any) -> None:
            method(instance, *args, **kwargs)
            bound = instance.__dict__.get("submit")
            if bound is not None and not hasattr(bound, "__perfbench_span__"):
                instance.submit = tracer.wrap(bound, name, gtid_index)

        return rebinding

    def uninstall(self) -> None:
        """Restore every patched class attribute."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Recording control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Drop any earlier spans and begin recording."""
        self.spans.clear()
        self._stack.clear()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans as gzip JSON lines: a header, then one span a line."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"fields": FIELDS, **meta}) + "\n")
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Arithmetic over span records
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded and nested, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[index] for index, (_, start, end, _, _) in enumerate(spans)]


def span_totals(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    totals: Dict[str, Dict[str, float]] = {}
    for record, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(record[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (record[2] - record[1]) / 1e9
        entry["self_s"] += own / 1e9
    return totals


def layer_table(spans: Sequence[Sequence[Any]], wall_s: float) -> List[Tuple[str, int, float, float]]:
    """Rows ``(layer, calls, self_s, share of wall)``, largest self time first.

    A layer is the span name's prefix before the dot.  The ``(unwrapped)``
    row is the traced wall time outside every top-level span.
    """
    layers: Dict[str, List[float]] = {}
    for name, entry in span_totals(spans).items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0])
        row[0] += entry["calls"]
        row[1] += entry["self_s"]
    top_level_s = sum(end - start for _, start, end, parent, _ in spans if parent < 0) / 1e9
    layers["(unwrapped)"] = [0, max(wall_s - top_level_s, 0.0)]
    rows = [
        (layer, int(calls), self_s, self_s / wall_s if wall_s else 0.0)
        for layer, (calls, self_s) in layers.items()
    ]
    return sorted(rows, key=lambda row: -row[2])


def _percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(
    spans: Sequence[Sequence[Any]],
    counters: Dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
    untraced_events: int,
) -> Dict[str, float]:
    """The benchmark's per-layer metrics for one traced unit.

    ``counters`` are the unit's deterministic counters (summed over its
    points); the ``untraced_*`` arguments come from the untraced units.
    """
    totals = span_totals(spans)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    gaps_us = [(end - start) / 1e3 for name, start, end, _, _ in spans if name == "engine.segment"]
    waits = counters.get("resource_cpu_waits", 0) + counters.get("resource_disk_waits", 0)
    served = counters.get("resource_cpu_served", 0) + counters.get("resource_disk_served", 0)
    begins = calls("router.begin")
    return {
        "engine.events": counters.get("events_processed", 0),
        "engine.ns_per_event": untraced_wall_s * 1e9 / untraced_events if untraced_events else 0.0,
        "engine.self_s": own("engine.segment"),
        "engine.gap_p50_us": statistics.median(gaps_us) if gaps_us else 0.0,
        "engine.gap_p99_us": _percentile(gaps_us, 0.99),
        "workload.next_calls": calls("workload.next"),
        "workload.next_s": total("workload.next"),
        "resources.step_calls": calls("resources.step"),
        "resources.step_s": total("resources.step"),
        "resources.waits": waits,
        "resources.wait_ratio": waits / served if served else 0.0,
        "router.submit_calls": calls("router.submit"),
        "router.submit_self_s": own("router.submit"),
        "router.commit_calls": calls("router.commit"),
        "router.commit_self_s": own("router.commit"),
        "scheduler.submit_calls": calls("scheduler.submit"),
        "scheduler.submit_self_s": own("scheduler.submit"),
        "scheduler.commit_s": total("scheduler.commit"),
        "scheduler.blocks": counters.get("blocks", 0),
        "scheduler.aborts": counters.get("aborts", 0),
        "scheduler.commit_dependency_edges": counters.get("commit_dependency_edges", 0),
        "scheduler.useful_ratio": counters.get("completions", 0) / begins if begins else 0.0,
        "graph.creates_cycle_calls": calls("graph.creates_cycle"),
        "graph.creates_cycle_s": total("graph.creates_cycle"),
        "cycles.check_calls": calls("cycles.check"),
        "cycles.check_s": total("cycles.check"),
        "cycles.sweep_calls": calls("cycles.sweep"),
        "cycles.sweep_s": total("cycles.sweep"),
        "cycles.certify_calls": calls("cycles.certify"),
        "cycles.certify_s": total("cycles.certify"),
        "replication.select_s": total("replication.select"),
        "replication.messages": counters.get("replication_messages", 0),
        "replication.catchup_objects": counters.get("replication_catchup_objects", 0),
        "commit.protocol_self_s": own("commit.protocol"),
        "commit.prepare_messages": counters.get("commit_prepare_messages", 0),
        "commit.re_replicated_objects": counters.get("commit_re_replicated_objects", 0),
        "site.failover_s": total("site.fail") + total("site.recover"),
        "experiments.points": calls("experiments.build") + calls("experiments.reset"),
        "experiments.build_s": total("experiments.build"),
        "experiments.reset_s": total("experiments.reset"),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0,
    }
