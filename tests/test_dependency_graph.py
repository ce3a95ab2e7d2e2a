"""Tests for the unified wait-for / commit-dependency graph."""


from repro.core.dependency_graph import DependencyGraph, Edge, EdgeKind


def make_chain(*pairs):
    graph = DependencyGraph()
    for source, target in pairs:
        graph.add_edge(source, target, EdgeKind.COMMIT_DEPENDENCY)
    return graph


class TestNodesAndEdges:
    def test_add_node_is_idempotent(self):
        graph = DependencyGraph()
        graph.add_node(1)
        graph.add_node(1)
        assert graph.nodes() == {1}

    def test_add_edge_creates_missing_nodes(self):
        graph = make_chain((1, 2))
        assert graph.nodes() == {1, 2}
        assert graph.has_edge(1, 2)
        assert graph.has_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        assert not graph.has_edge(1, 2, EdgeKind.WAIT_FOR)

    def test_self_loops_are_ignored(self):
        graph = DependencyGraph()
        graph.add_edge(1, 1, EdgeKind.WAIT_FOR)
        assert graph.edge_count() == 0

    def test_two_kinds_on_same_pair(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        assert graph.edge_count() == 2
        assert graph.out_degree(1) == 1
        assert graph.out_degree(1, EdgeKind.WAIT_FOR) == 1

    def test_successors_predecessors(self):
        graph = make_chain((1, 2), (1, 3))
        assert graph.successors(1) == {2, 3}
        assert graph.predecessors(2) == {1}
        assert graph.predecessors(1) == set()

    def test_edges_listing(self):
        graph = make_chain((1, 2))
        assert graph.edges() == [Edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)]

    def test_add_edges_bulk(self):
        graph = DependencyGraph()
        graph.add_edges(1, [2, 3, 1], EdgeKind.WAIT_FOR)
        assert graph.successors(1) == {2, 3}


class TestRemoval:
    def test_remove_node_returns_former_predecessors(self):
        graph = make_chain((1, 3), (2, 3), (3, 4))
        former = graph.remove_node(3)
        assert former == {1, 2}
        assert graph.nodes() == {1, 2, 4}
        assert graph.out_degree(1) == 0
        assert graph.predecessors(4) == set()

    def test_remove_missing_node_is_noop(self):
        graph = DependencyGraph()
        assert graph.remove_node(99) == set()

    def test_remove_edges_from_by_kind(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 3, EdgeKind.COMMIT_DEPENDENCY)
        graph.remove_edges_from(1, EdgeKind.WAIT_FOR)
        assert not graph.has_edge(1, 2)
        assert graph.has_edge(1, 3)

    def test_remove_all_edges_from(self):
        graph = make_chain((1, 2), (1, 3))
        graph.remove_edges_from(1)
        assert graph.out_degree(1) == 0
        assert graph.nodes() == {1, 2, 3}


class TestCycles:
    def test_reachable(self):
        graph = make_chain((1, 2), (2, 3))
        assert graph.reachable(1, 3)
        assert not graph.reachable(3, 1)
        assert not graph.reachable(1, 99)

    def test_creates_cycle_detects_back_path(self):
        graph = make_chain((2, 1))
        assert graph.creates_cycle(1, {2})
        assert not graph.creates_cycle(2, {1})  # the edge already exists; no new cycle

    def test_creates_cycle_ignores_self(self):
        graph = DependencyGraph()
        graph.add_node(1)
        assert not graph.creates_cycle(1, {1})

    def test_find_cycle_none_when_acyclic(self):
        graph = make_chain((1, 2), (2, 3), (1, 3))
        assert graph.find_cycle() is None
        assert not graph.has_cycle()

    def test_find_cycle_returns_cycle_nodes(self):
        graph = make_chain((1, 2), (2, 3), (3, 1))
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}
        assert graph.has_cycle()

    def test_mixed_kind_cycle_is_detected(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(2, 1, EdgeKind.COMMIT_DEPENDENCY)
        assert graph.has_cycle()

    def test_zero_out_degree_nodes(self):
        graph = make_chain((1, 2), (3, 2))
        assert graph.zero_out_degree_nodes() == {2}
        assert graph.zero_out_degree_nodes(candidates=[1, 2]) == {2}

    def test_len_counts_nodes(self):
        graph = make_chain((1, 2), (2, 3))
        assert len(graph) == 3


class TestRemoveEdge:
    def test_removes_every_kind_of_the_pair(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        graph.add_edge(1, 3, EdgeKind.WAIT_FOR)
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.predecessors(2) == set()
        assert graph.successors(1) == {3}
        assert graph.nodes() == {1, 2, 3}

    def test_absent_edge_is_a_noop(self):
        graph = make_chain((1, 2))
        before = graph.mutations
        graph.remove_edge(2, 1)
        graph.remove_edge(1, 9)
        graph.remove_edge(9, 1)
        assert graph.mutations == before
        assert graph.has_edge(1, 2)

    def test_bumps_mutations(self):
        graph = make_chain((1, 2))
        before = graph.mutations
        graph.remove_edge(1, 2)
        assert graph.mutations == before + 1

    def test_removing_the_last_back_edge_rebuilds_the_order(self):
        graph = make_chain((1, 2), (2, 3))
        graph.add_edge(3, 1, EdgeKind.WAIT_FOR)  # closes the cycle
        assert graph.back_edges() == {(3, 1)}
        graph.remove_edge(1, 2)  # breaks the cycle, but (3, 1) stays recorded
        assert graph.back_edges() == {(3, 1)}
        graph.remove_edge(3, 1)
        assert not graph.back_edges()
        assert graph.order_violations() == []
        assert graph.creates_cycle(3, {2})
        assert not graph.creates_cycle(2, {3})


class TestPairHook:
    def _recorded(self):
        graph = DependencyGraph()
        changes = []
        graph.pair_hook = lambda source, target, kind: changes.append((source, target, kind))
        return graph, changes

    def test_fires_on_first_edge_of_a_pair_only(self):
        graph, changes = self._recorded()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        graph.add_edge(1, 1, EdgeKind.WAIT_FOR)
        assert changes == [(1, 2, EdgeKind.WAIT_FOR)]

    def test_fires_when_a_pair_loses_its_last_edge(self):
        graph, changes = self._recorded()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        graph.add_edge(1, 3, EdgeKind.WAIT_FOR)
        changes.clear()
        graph.remove_edges_from(1, EdgeKind.WAIT_FOR)
        assert changes == [(1, 3, None)]
        graph.remove_edge(1, 2)
        assert changes == [(1, 3, None), (1, 2, None)]

    def test_remove_node_reports_both_directions(self):
        graph, changes = self._recorded()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(2, 3, EdgeKind.COMMIT_DEPENDENCY)
        changes.clear()
        graph.remove_node(2)
        assert sorted(changes) == [(1, 2, None), (2, 3, None)]
        graph.remove_node(4)
        assert len(changes) == 2

    def test_no_hook_by_default(self):
        assert DependencyGraph().pair_hook is None
