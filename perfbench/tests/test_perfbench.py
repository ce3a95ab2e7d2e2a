"""Tests of the wall-clock benchmark's own code: workloads, checks, tracing."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    installed = tracing.Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_unit_passes_its_checks_and_repeats_exactly(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.run_unit(workload, seed=3, smoke=True)
    second = workloads.run_unit(workload, seed=3, smoke=True)
    assert first.problems == [] and second.problems == []
    assert first.completions > 0 and first.wall_s > 0
    assert first.digest == second.digest


def test_smoke_replicated_unit_crashes_and_recovers_a_site():
    workload = workloads.WORKLOADS["replicated-quorum-2pc"]
    unit = workloads.run_unit(workload, seed=3, smoke=True)
    assert unit.counters["replication_catchups"] >= 1
    assert unit.counters["replication_site_failure_aborts"] >= 1


def test_check_counters_reports_each_broken_invariant():
    counters = {"completions": 9, "commits": 4, "pseudo_commits": 4, "window": 2}
    problems = workloads.check_counters(counters, 10, zero_counters=("window",))
    assert len(problems) == 3
    assert workloads.check_counters({"completions": 2, "commits": 2}, 2) == []


def test_a_raising_unit_is_reported_not_raised():
    broken = workloads.Workload(name="broken", why="", kind="simulation",
                                overrides=(("mpl_level", 0),))
    unit = workloads.run_unit(broken, seed=1)
    assert unit.problems and unit.digest == ""


def test_self_times_subtract_direct_children_only():
    # root [0, 100] -> a [10, 40] -> a1 [15, 25]; root -> b [50, 90]
    spans = [
        ["engine.segment", 0, 100, -1, None],
        ["router.submit", 10, 40, 0, 7],
        ["scheduler.submit", 15, 25, 1, None],
        ["router.commit", 50, 90, 0, 7],
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 40]
    totals = tracing.span_totals(spans)
    assert totals["router.submit"]["calls"] == 1
    assert totals["router.submit"]["self_s"] == pytest.approx(20e-9)
    rows = {row[0]: row for row in tracing.layer_table(spans, wall_s=150e-9)}
    assert rows["router"][1:3] == (2, pytest.approx(60e-9))
    assert rows["engine"][2] == pytest.approx(30e-9)
    assert rows["(unwrapped)"][2] == pytest.approx(50e-9)


def test_wrappers_record_nested_spans_and_skip_same_name_reentry():
    recorder = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = recorder.wrap(inner, "graph.creates_cycle")
    reentrant = recorder.wrap(lambda x: wrapped_inner(x), "graph.creates_cycle")
    outer = recorder.wrap(lambda tid: reentrant(tid) * 2, "router.submit", gtid_index=0)
    assert outer(1) == 4 and recorder.spans == []  # inactive: pass-through
    recorder.start()
    assert outer(5) == 12
    recorder.stop()
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == [
        ("router.submit", -1, 5),
        ("graph.creates_cycle", 0, None),
    ]


def test_uninstall_restores_every_patched_attribute():
    from repro.core.scheduler import Scheduler
    from repro.distributed.router import TransactionRouter

    before = (Scheduler.__init__, TransactionRouter.submit, TransactionRouter._rebind_submit)
    recorder = tracing.Tracer()
    recorder.install()
    assert hasattr(TransactionRouter.submit, "__perfbench_span__")
    recorder.uninstall()
    assert (Scheduler.__init__, TransactionRouter.submit, TransactionRouter._rebind_submit) == before


def test_rebound_submits_are_wrapped_after_reset_and_recovery(tracer):
    from repro.adts.page import PageType
    from repro.core.specification import Invocation
    from repro.distributed.router import TransactionRouter

    def traced_names(router):
        tracer.start()
        transaction = router.begin()
        router.submit(transaction.tid, "p", Invocation("read", ()))
        router.commit(transaction.tid)
        tracer.stop()
        return {span[0] for span in tracer.spans}

    single = TransactionRouter(site_count=1)
    single.register_object("p", PageType())
    assert hasattr(single.__dict__["submit"], "__perfbench_span__")
    assert hasattr(single.sites[0].scheduler.__dict__["submit"], "__perfbench_span__")
    single.reset()
    assert {"router.submit", "scheduler.submit", "router.commit"} <= traced_names(single)
    single.fail_site(0)
    single.recover_site(0)
    assert hasattr(single.__dict__["submit"], "__perfbench_span__")
    assert hasattr(single.sites[0].scheduler.__dict__["submit"], "__perfbench_span__")

    replicated = TransactionRouter(site_count=3, replication="copies")
    replicated.register_object("p", PageType())
    old = replicated.sites[1].scheduler
    replicated.fail_site(1)
    replicated.recover_site(1)
    fresh = replicated.sites[1].scheduler
    assert fresh is not old
    assert hasattr(fresh.__dict__["submit"], "__perfbench_span__")
    names = traced_names(replicated)
    assert {"router.submit", "scheduler.submit", "replication.select"} <= names
    assert any(span[0] == "scheduler.submit" for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_unit_matches_untraced_and_attributes_layers(name, tracer):
    workload = workloads.WORKLOADS[name]
    tracer.uninstall()
    untraced = workloads.run_unit(workload, seed=2, smoke=True)
    tracer.install()
    traced = workloads.run_unit(
        workload, seed=2, smoke=True, before_timing=tracer.start, after_timing=tracer.stop
    )
    assert traced.problems == [] and traced.digest == untraced.digest
    metrics = tracing.layer_metrics(
        tracer.spans, traced.counters, traced.wall_s, untraced.wall_s, untraced.events
    )
    assert metrics["engine.events"] == traced.events
    assert metrics["router.submit_calls"] > 0 and metrics["scheduler.submit_calls"] > 0
    assert metrics["workload.next_calls"] > 0
    assert (metrics["cycles.check_calls"] > 0) == (name == "replicated-quorum-2pc")
    assert (metrics["cycles.sweep_calls"] > 0) == (name == "replicated-quorum-2pc")
    assert (metrics["resources.step_calls"] > 0) == (name == "replicated-quorum-2pc")
    assert (metrics["site.failover_s"] > 0) == (name == "replicated-quorum-2pc")
    assert (metrics["experiments.points"] > 0) == (name == "adt-sweep")
    assert 0 < metrics["scheduler.useful_ratio"] <= 1
