"""The unified dependency graph: wait-for edges plus commit-dependency edges.

Section 4.2 of the paper combines deadlock detection and commit-dependency
cycle detection in a single graph.  Nodes are active transactions; an edge
``T_i -> T_j`` means *T_i cannot commit (or proceed) until T_j terminates*:

* a **wait-for** edge is added when ``T_i`` requests an operation that is not
  recoverable relative to an uncommitted operation of ``T_j`` — ``T_i`` blocks;
* a **commit-dependency** edge is added when ``T_i`` executes an operation that
  is recoverable (but not commutative) relative to an uncommitted operation of
  ``T_j`` — ``T_i`` may run now but must commit after ``T_j``.

A cycle (which may mix both edge kinds) would make the execution
unserializable or deadlocked, so the transaction whose request would close the
cycle is aborted.  Because both readings point "towards the transaction that
must terminate first", the commit rule for pseudo-committed transactions is
simply: a pseudo-committed transaction whose node has **out-degree zero** has
no one left to wait for and can be durably committed (Section 4.3).

Cycle checks are served by an **online topological order** maintained
Pearce–Kelly style (Pearce & Kelly 2006, "A Dynamic Topological Sort
Algorithm for Directed Acyclic Graphs").  The invariant, while the graph is
acyclic, is ``ord[u] > ord[v]`` for every edge ``u -> v`` — dependencies sort
*below* their dependents.  New transactions receive increasing positions, and
since a requester is almost always younger than the transactions it waits on,
the typical ``add_edge`` already respects the order and costs O(1); only an
order-violating insertion searches (and reorders) the affected region
``[ord[v], ord[u]]``.  ``creates_cycle(source, targets)`` is then O(1) for
order-respecting candidates: ``source`` can only be reachable from a target
placed *above* it.  Edge/node removals never invalidate a topological order,
so they need no maintenance at all — the old reachability cache and its
per-mutation eviction scan are gone.

The scheduler never inserts a cycle-closing edge (it asks first), but the
test suite builds deliberately cyclic graphs, so insertion tolerates them:
each edge that closes a cycle is recorded in ``_back_edges``; while any are
present the order is suspended and queries fall back to a plain DFS, and when
the last recorded back edge is removed the order is rebuilt from scratch.
Every cycle contains at least one recorded edge (its last-inserted edge was
detected as cycle-closing when added), so an empty ``_back_edges`` proves the
graph acyclic and the fast path sound.

An optional :attr:`DependencyGraph.pair_hook` reports every change in which
``(source, target)`` pairs are linked — a pair gaining its first edge or
losing its last — so a derived graph can be kept equal to this one edge by
edge.  The multi-site router mirrors each site's graph into one graph keyed
by global transaction id this way (see :mod:`repro.distributed.cycles`); the
hook is a plain callable, so this module needs no import from there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["EdgeKind", "Edge", "DependencyGraph", "PairHook"]


class EdgeKind(enum.Enum):
    """The two kinds of edges in the unified dependency graph."""

    WAIT_FOR = "wait-for"
    COMMIT_DEPENDENCY = "commit-dependency"


@dataclass(frozen=True)
class Edge:
    """A directed edge ``source -> target`` of a given kind."""

    source: int
    target: int
    kind: EdgeKind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.source} -[{self.kind.value}]-> T{self.target}"


#: ``hook(source, target, kind)``: the pair gained its first edge (``kind``
#: is that edge's kind) or, with ``kind=None``, lost its last edge.
PairHook = Callable[[int, int, Optional[EdgeKind]], None]


class DependencyGraph:
    """Directed multigraph over transaction ids with typed edges.

    The graph is intentionally small (one node per active transaction) and the
    operations the scheduler needs — add edges, test for a cycle through a
    given node, drop a node, find nodes whose out-degree became zero — are all
    amortised near-constant thanks to the maintained topological order.
    """

    def __init__(self) -> None:
        # successors[node][target] -> set of edge kinds
        self._successors: Dict[int, Dict[int, Set[EdgeKind]]] = {}
        self._predecessors: Dict[int, Set[int]] = {}
        #: Online topological position per node; invariant (while acyclic):
        #: ``ord[u] > ord[v]`` for every edge ``u -> v``.
        self._ord: Dict[int, int] = {}
        self._next_ord = 0
        #: Edges recorded as cycle-closing at insertion time.  Non-empty means
        #: the graph may be cyclic: the order is suspended and cycle queries
        #: use a full DFS until these edges are gone (test-only territory —
        #: the scheduler checks ``creates_cycle`` before every insertion).
        self._back_edges: Set[Tuple[int, int]] = set()
        #: Monotonic count of topology changes (pairs linked or unlinked,
        #: nodes removed).  An unchanged value guarantees the successor sets
        #: are unchanged; the multi-site router's periodic cycle sweep gates
        #: on the sum of these counters over the site graphs.
        self.mutations = 0
        #: Optional :data:`PairHook`, called whenever a ``(source, target)``
        #: pair gains its first edge or loses its last one.  ``None`` (the
        #: default) costs one attribute test per pair change.
        self.pair_hook: Optional[PairHook] = None

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Ensure ``node`` exists (idempotent)."""
        if node not in self._successors:
            self._successors[node] = {}
            self._predecessors[node] = set()
            self._ord[node] = self._next_ord
            self._next_ord += 1

    def has_node(self, node: int) -> bool:
        return node in self._successors

    def nodes(self) -> Set[int]:
        return set(self._successors)

    def remove_node(self, node: int) -> Set[int]:
        """Remove ``node`` and every edge touching it.

        Returns the set of former predecessors — the transactions that were
        waiting on (or commit-dependent on) the removed one.  The caller uses
        this to find pseudo-committed transactions that may now commit and
        blocked transactions that should be retried.
        """
        if node not in self._successors:
            return set()
        hook = self.pair_hook
        for target in list(self._successors[node]):
            self._predecessors[target].discard(node)
            if hook is not None:
                hook(node, target, None)
        former_predecessors = set(self._predecessors.get(node, ()))
        for predecessor in former_predecessors:
            self._successors[predecessor].pop(node, None)
            if hook is not None:
                hook(predecessor, node, None)
        del self._successors[node]
        del self._predecessors[node]
        del self._ord[node]
        if self._back_edges:
            self._back_edges = {
                pair for pair in self._back_edges if node not in pair
            }
            if not self._back_edges:
                self._rebuild_order()
        self.mutations += 1
        return former_predecessors

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, source: int, target: int, kind: EdgeKind) -> None:
        """Add a typed edge; self-loops are ignored (a transaction never
        depends on itself)."""
        if source == target:
            return
        self.add_node(source)
        self.add_node(target)
        kinds = self._successors[source].setdefault(target, set())
        if not kinds:
            # Reachability only changes when the (source, target) pair gains
            # its *first* edge; a second kind is a no-op for the order too.
            self.mutations += 1
            self._order_edge_added(source, target)
            if self.pair_hook is not None:
                self.pair_hook(source, target, kind)
        kinds.add(kind)
        self._predecessors[target].add(source)

    def _order_edge_added(self, source: int, target: int) -> None:
        """Restore the topological invariant after inserting an edge."""
        if self._back_edges:
            # Order suspended: just record whether this edge closes (another)
            # cycle, via an unbounded walk — the graph may already be cyclic.
            if self._dfs_reaches(target, source):
                self._back_edges.add((source, target))
            return
        ord_ = self._ord
        lower = ord_[source]
        upper = ord_[target]
        if lower > upper:
            return  # order-respecting: the common case, O(1)
        # Affected region is [lower, upper].  Forward walk from ``target``
        # collecting nodes that may need to move below ``source``; meeting
        # ``source`` means the new edge closes a cycle.
        successors = self._successors
        delta_forward = [target]
        seen_forward = {target}
        stack = [target]
        while stack:
            node = stack.pop()
            for child in successors[node]:
                if child == source:
                    # Cycle: keep the (now invalid) order frozen and fall
                    # back to DFS queries until this edge is removed.
                    self._back_edges.add((source, target))
                    return
                if child not in seen_forward and ord_[child] > lower:
                    seen_forward.add(child)
                    delta_forward.append(child)
                    stack.append(child)
        # Backward walk from ``source``: nodes inside the region that must
        # stay above everything reachable from ``target``.
        predecessors = self._predecessors
        delta_backward = [source]
        seen_backward = {source}
        stack = [source]
        while stack:
            node = stack.pop()
            for parent in predecessors[node]:
                if parent not in seen_backward and ord_[parent] < upper:
                    seen_backward.add(parent)
                    delta_backward.append(parent)
                    stack.append(parent)
        # Reassign the pooled positions: the forward set (reachable from
        # ``target``) takes the low slots, the backward set (reaching
        # ``source``) the high slots; relative order inside each set is kept.
        delta_forward.sort(key=ord_.__getitem__)
        delta_backward.sort(key=ord_.__getitem__)
        moved = delta_forward + delta_backward
        pool = sorted(ord_[node] for node in moved)
        for position, node in zip(pool, moved):
            ord_[node] = position

    def add_edges(self, source: int, targets: Iterable[int], kind: EdgeKind) -> None:
        """Add edges from ``source`` to every node in ``targets``."""
        for target in targets:
            self.add_edge(source, target, kind)

    def remove_edges_from(self, source: int, kind: Optional[EdgeKind] = None) -> None:
        """Remove all outgoing edges of ``source`` (of one kind, or of any kind).

        Used when a blocked transaction's request is finally granted: its
        wait-for edges are stale and must not linger (they would cause
        spurious deadlock aborts later).  Removals never invalidate a valid
        topological order, so no maintenance is needed.
        """
        if source not in self._successors:
            return
        was_suspended = bool(self._back_edges)
        dropped_any = False
        hook = self.pair_hook
        for target in list(self._successors[source]):
            kinds = self._successors[source][target]
            if kind is None:
                kinds.clear()
            else:
                kinds.discard(kind)
            if not kinds:
                del self._successors[source][target]
                self._predecessors[target].discard(source)
                dropped_any = True
                if was_suspended:
                    self._back_edges.discard((source, target))
                if hook is not None:
                    hook(source, target, None)
        if dropped_any:
            self.mutations += 1
            # The order only needs rebuilding when the graph just became
            # provably acyclic again after a cyclic episode (test-only path).
            if was_suspended and not self._back_edges:
                self._rebuild_order()

    def remove_edge(self, source: int, target: int) -> None:
        """Unlink ``source -> target`` (every kind); a no-op when absent.

        Like every removal it leaves a valid topological order valid; when
        it drops the last recorded back edge the order is rebuilt.
        """
        targets = self._successors.get(source)
        if targets is None or targets.pop(target, None) is None:
            return
        self._predecessors[target].discard(source)
        self.mutations += 1
        if self._back_edges:
            self._back_edges.discard((source, target))
            if not self._back_edges:
                self._rebuild_order()
        if self.pair_hook is not None:
            self.pair_hook(source, target, None)

    def has_edge(self, source: int, target: int, kind: Optional[EdgeKind] = None) -> bool:
        kinds = self._successors.get(source, {}).get(target)
        if not kinds:
            return False
        return kind is None or kind in kinds

    def edges(self) -> List[Edge]:
        """All edges, one :class:`Edge` per (source, target, kind) triple."""
        result: List[Edge] = []
        for source, targets in self._successors.items():
            for target, kinds in targets.items():
                for kind in kinds:
                    result.append(Edge(source, target, kind))
        return result

    def successors(self, node: int) -> AbstractSet[int]:
        """Read-only view of ``node``'s successors (do not mutate)."""
        targets = self._successors.get(node)
        return targets.keys() if targets is not None else frozenset()

    def predecessors(self, node: int) -> AbstractSet[int]:
        """Read-only view of ``node``'s predecessors (do not mutate)."""
        sources = self._predecessors.get(node)
        return sources if sources is not None else frozenset()

    def successors_by_kind(self, node: int, kind: EdgeKind) -> Set[int]:
        """Successors linked from ``node`` by an edge of ``kind``."""
        targets = self._successors.get(node)
        if not targets:
            return set()
        return {target for target, kinds in targets.items() if kind in kinds}

    def out_degree(self, node: int, kind: Optional[EdgeKind] = None) -> int:
        """Number of distinct successor nodes (optionally of one edge kind)."""
        targets = self._successors.get(node, {})
        if kind is None:
            return len(targets)
        return sum(1 for kinds in targets.values() if kind in kinds)

    def edge_count(self, kind: Optional[EdgeKind] = None) -> int:
        """Number of typed edges (a pair linked by both kinds counts twice)."""
        return sum(
            len(kinds) if kind is None else (1 if kind in kinds else 0)
            for targets in self._successors.values()
            for kinds in targets.values()
        )

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------
    def _rebuild_order(self) -> None:
        """Recompute ``_ord`` from scratch (graph known acyclic).

        Iterative DFS postorder: a node finishes after all its successors,
        so assigning positions in finish order satisfies the invariant.
        Only runs when a cyclic episode ends — never on scheduler paths.
        """
        successors = self._successors
        order: Dict[int, int] = {}
        counter = 0
        visited: Set[int] = set()
        for root in successors:
            if root in visited:
                continue
            visited.add(root)
            stack: List[Tuple[int, Iterable[int]]] = [(root, iter(successors[root]))]
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in visited:
                        visited.add(child)
                        stack.append((child, iter(successors[child])))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    order[node] = counter
                    counter += 1
        self._ord = order
        self._next_ord = counter

    def _dfs_reaches(self, start: int, goal: int) -> bool:
        """Unbounded DFS: can ``goal`` be reached from ``start``?

        The fallback (and test oracle) path — used only while the graph may
        be cyclic, when the topological bound cannot prune the walk.
        """
        successors = self._successors
        stack = list(successors.get(start, ()))
        seen: Set[int] = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors[node])
        return False

    def reachable(self, start: int, goal: int) -> bool:
        """True if ``goal`` can be reached from ``start`` following edges.

        Kept as the plain full-DFS oracle for the equivalence tests; the
        scheduler paths use :meth:`creates_cycle`, which answers through the
        maintained order instead.
        """
        if start not in self._successors or goal not in self._successors:
            return False
        if start == goal:
            return True
        return self._dfs_reaches(start, goal)

    def creates_cycle(self, source: int, targets: Iterable[int]) -> bool:
        """Would adding edges ``source -> t`` for each target close a cycle?

        The new edges close a cycle exactly when ``source`` is already
        reachable from one of the targets (including the degenerate
        ``target == source`` case, which the scheduler filters out earlier).
        With the topological order, a target placed *below* ``source``
        (``ord[t] < ord[source]``) cannot reach it — answered in O(1); only
        targets above ``source`` trigger a walk, and that walk is pruned to
        the region above ``ord[source]``.
        """
        successors = self._successors
        if source not in successors:
            return False
        if self._back_edges:
            for target in targets:
                if target == source or target not in successors:
                    continue
                if self._dfs_reaches(target, source):
                    return True
            return False
        ord_ = self._ord
        source_position = ord_[source]
        stack: Optional[List[int]] = None
        for target in targets:
            if target == source or target not in successors:
                continue
            if ord_[target] > source_position:
                if stack is None:
                    stack = [target]
                else:
                    stack.append(target)
        if stack is None:
            return False
        seen = set(stack)
        while stack:
            node = stack.pop()
            for child in successors[node]:
                if child == source:
                    return True
                if child not in seen and ord_[child] > source_position:
                    seen.add(child)
                    stack.append(child)
        return False

    def back_edges(self) -> AbstractSet[Tuple[int, int]]:
        """Read-only view of the edges recorded as cycle-closing.

        Empty proves the graph acyclic (see the module docstring); non-empty
        means it *may* be cyclic.  Do not mutate.
        """
        return self._back_edges

    def has_cycle(self) -> bool:
        """Full-graph cycle test (used by tests and the offline checkers)."""
        return self.find_cycle() is not None

    def find_cycle(self) -> Optional[List[int]]:
        """Return one cycle as a list of nodes, or ``None`` if acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {node: WHITE for node in self._successors}
        parent: Dict[int, Optional[int]] = {}

        def visit(root: int) -> Optional[List[int]]:
            stack: List[Tuple[int, Iterable[int]]] = [(root, iter(self._successors[root]))]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == GREY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [child, node]
                        walk = parent.get(node)
                        while walk is not None and walk != child:
                            cycle.append(walk)
                            walk = parent.get(walk)
                        cycle.reverse()
                        return cycle
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(self._successors[child])))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
            return None

        for node in self._successors:
            if colour[node] == WHITE:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

    def order_violations(self) -> List[Tuple[int, int]]:
        """Edges violating the topological invariant (diagnostics/tests).

        Empty whenever ``_back_edges`` is empty — the property suite asserts
        exactly that after every mutation step.
        """
        ord_ = self._ord
        return [
            (source, target)
            for source, targets in self._successors.items()
            for target in targets
            if ord_[source] <= ord_[target]
        ]

    def zero_out_degree_nodes(self, candidates: Optional[Iterable[int]] = None) -> Set[int]:
        """Nodes with no outgoing edges (restricted to ``candidates`` if given)."""
        successors = self._successors
        if candidates is None:
            return {node for node, targets in successors.items() if not targets}
        return {
            node
            for node in candidates
            if node in successors and not successors[node]
        }

    def __len__(self) -> int:
        return len(self._successors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DependencyGraph nodes={len(self)} "
            f"wait_for={self.edge_count(EdgeKind.WAIT_FOR)} "
            f"commit_dep={self.edge_count(EdgeKind.COMMIT_DEPENDENCY)}>"
        )
