"""The router's global dependency graph against the per-site union walk.

:class:`~repro.distributed.cycles.UnionCycleDetector` keeps one
:class:`~repro.core.dependency_graph.DependencyGraph` keyed by global tid in
step with the per-site graphs (through their ``pair_hook``), and answers
every cross-site cycle check from it.  The oracle here is the walk the
detector used to run instead: join each transaction's live branches' local
successors through the router's local-tid maps.  At every ``closes_cycle``,
``sweep`` and ``find_cycle_through`` call of a simulation the two
adjacencies must agree, and a global graph with no recorded back edge must
mean the union graph is acyclic — the soundness of every O(1) answer.
"""

from typing import Dict, List, Set

import pytest

from repro.core.policy import ConflictPolicy
from repro.core.transaction import TransactionStatus
from repro.distributed.cycles import UnionCycleDetector
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

#: Site 1 crashes and recovers, then site 0 does: both graphs are rebuilt.
DOUBLE_CRASH = ((0.5, "fail", 1), (1.0, "recover", 1),
                (1.3, "fail", 0), (1.6, "recover", 0))

BACKENDS = {
    "recoverability": (ConflictPolicy.RECOVERABILITY, "readwrite"),
    "2pl": (ConflictPolicy.TWO_PHASE_LOCKING, "readwrite"),
    "adt": (ConflictPolicy.RECOVERABILITY, "adt"),
}

PROTOCOLS = {
    "available-copies": {},
    "quorum": dict(quorum_read=2, quorum_write=2),
    "primary-copy": {},
}


def reference_successors(router, gtid: int) -> Set[int]:
    """The per-site union walk: live branches' local successors, mapped."""
    transaction = router.transactions.get(gtid)
    if transaction is None:
        return set()
    successors: Set[int] = set()
    for site_id, branch in transaction.branches.items():
        site = router.sites[site_id]
        if not site.status.is_up or branch.generation != site.generation:
            continue
        local_map = router._local_map[site_id]
        for local_successor in site.scheduler.graph.successors(branch.local_tid):
            successor = local_map.get(local_successor)
            if successor is not None and successor != gtid:
                successors.add(successor)
    return successors


def has_cycle(adjacency: Dict[int, Set[int]]) -> bool:
    finished: Set[int] = set()
    for root in adjacency:
        if root in finished:
            continue
        on_path: List[int] = []
        stack = [(root, iter(sorted(adjacency[root])))]
        on_path.append(root)
        while stack:
            node, successors = stack[-1]
            for successor in successors:
                if successor in on_path:
                    return True
                if successor not in finished:
                    on_path.append(successor)
                    stack.append((successor, iter(sorted(adjacency.get(successor, ())))))
                    break
            else:
                stack.pop()
                on_path.pop()
                finished.add(node)
    return False


class Oracle:
    """Compares the detector's graph with the union walk at every check."""

    def __init__(self):
        self.checks = 0
        self.with_edges = 0
        self.cyclic = 0

    def check(self, detector: UnionCycleDetector, where: str) -> None:
        router = detector.router
        graph = router.global_graph
        assert graph is not None
        adjacency = {}
        for gtid in sorted(router.transactions):
            expected = reference_successors(router, gtid)
            assert set(detector.global_successors(gtid)) == expected, (where, gtid)
            adjacency[gtid] = expected
        cyclic = has_cycle(adjacency)
        if not graph.back_edges():
            assert not cyclic, where
        # Only live transactions and edge holders keep a node.
        for node in graph.nodes():
            assert (
                node in router.transactions
                or graph.successors(node)
                or graph.predecessors(node)
            ), (where, node)
        self.checks += 1
        self.with_edges += any(adjacency.values())
        self.cyclic += cyclic

    def install(self, monkeypatch) -> None:
        for name in ("closes_cycle", "sweep", "find_cycle_through"):
            original = getattr(UnionCycleDetector, name)

            def checked(detector, *args, _original=original, _name=name):
                self.check(detector, _name)
                return _original(detector, *args)

            monkeypatch.setattr(UnionCycleDetector, name, checked)


def _params(backend, protocol, commit, seed, **extra):
    policy, _ = BACKENDS[backend]
    return SimulationParameters(
        mpl_level=15, total_completions=150, database_size=100, seed=seed,
        site_count=3, replication="copies", replication_protocol=protocol,
        commit_protocol=commit, failure_schedule=DOUBLE_CRASH, policy=policy,
        **PROTOCOLS[protocol], **extra)


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("commit", ["one-phase", "two-phase"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_global_graph_matches_the_union_walk(monkeypatch, backend, protocol, commit, seed):
    oracle = Oracle()
    oracle.install(monkeypatch)
    simulation = Simulation(
        _params(backend, protocol, commit, seed), workload_kind=BACKENDS[backend][1]
    )
    simulation.run()
    router = simulation.router
    assert router.router_stats.site_failures == 2
    assert oracle.checks > 100
    assert oracle.with_edges > 0


def test_cyclic_checks_are_reached(monkeypatch):
    """The matrix is not vacuous: cycles do form and walks do run."""
    oracle = Oracle()
    oracle.install(monkeypatch)
    simulation = Simulation(_params("2pl", "available-copies", "one-phase", 11))
    simulation.run()
    assert oracle.cyclic > 0
    assert simulation.router.router_stats.cross_site_cycle_checks > 0


def test_reset_rewatches_the_swapped_graphs(monkeypatch):
    """``Simulation.reset`` swaps every scheduler's graph (in place for a
    site that never crashed, by a rebuilt scheduler for one that did); the
    mirror must follow, or the second run's global graph stays empty."""
    params = _params("recoverability", "quorum", "two-phase", 11)
    simulation = Simulation(params)
    simulation.run()
    oracle = Oracle()
    oracle.install(monkeypatch)
    simulation.reset(params.replace(mpl_level=20))
    simulation.run()
    assert oracle.checks > 100
    assert oracle.with_edges > 0


def test_global_graph_stays_bounded_by_the_live_workload():
    params = SimulationParameters(
        mpl_level=30, total_completions=1500, database_size=100, seed=5,
        site_count=3, replication="copies", replication_protocol="quorum",
        quorum_read=2, quorum_write=2, commit_protocol="two-phase",
        failure_schedule=((2.0, "fail", 1), (4.0, "recover", 1)))
    simulation = Simulation(params)
    simulation.run()
    router = simulation.router
    graph = router.global_graph
    holding_edges = {
        node for node in graph.nodes()
        if graph.successors(node) or graph.predecessors(node)
    }
    live = {
        gtid for gtid, transaction in router.transactions.items()
        if transaction.status not in (TransactionStatus.ABORTED, TransactionStatus.COMMITTED)
    }
    assert router.router_stats.begins > 1500
    assert len(graph) <= len(live | holding_edges)


def test_single_site_router_keeps_no_global_graph():
    params = SimulationParameters(
        mpl_level=10, total_completions=60, database_size=100, seed=3)
    simulation = Simulation(params)
    simulation.run()
    assert simulation.router.global_graph is None
    assert simulation.router.sites[0].scheduler.graph.pair_hook is None
