"""Cross-site cycle detection over one global dependency graph.

Cross-site cycles — deadlocks or commit-dependency cycles spanning sites,
which no single site's graph can see — are the one global hazard of the
multi-site layer.  Section 4.2 of the paper detects both kinds in one
unified graph; :class:`UnionCycleDetector` keeps that graph for the whole
system: a :class:`~repro.core.dependency_graph.DependencyGraph` keyed by
global transaction id (``router.global_graph``) that mirrors the union of
the per-site graphs edge by edge.

The mirror is fed by each site graph's ``pair_hook``.  When a local pair
gains its first edge, the hook translates both local tids to global tids
through the router's local maps and remembers the translation by local
pair: the relay handlers drop a local tid's map entry *before* the site
graph removes its node, so a removal can no longer be translated then.
A per-pair count over the sites decides when the global edge appears and
disappears, a crashed site's pairs are dropped wholesale
(:meth:`retire_site`), and a global tid's node leaves the graph once it has
no edges and its transaction has finished — so the graph stays as small as
the live workload.

The global graph runs the Pearce–Kelly online order, so it records a *back
edge* for every insertion that closes a cycle — including the grant-time
commit-dependency edges added inside termination cascades, which no submit
carries.  While no back edge is recorded the union graph is provably
acyclic, and each check below returns at once:

* :meth:`closes_cycle` — the per-submit check: did the fan-out just routed
  close a cycle through the submitting transaction?
* :meth:`sweep` — the periodic, mutation-gated sweep that catches cycles
  closed *outside* a submit;
* :meth:`find_cycle_through` — the commit-time certification used by the
  two-phase commit protocol, which needs the cycle's *members* so it can
  apply the sweep's newest-``ACTIVE`` victim rule.

Only when a back edge is recorded does a check walk the graph: the same
sorted depth-first search as ever, over the union adjacency of
:meth:`global_successors`.  ``router.router_stats.cross_site_cycle_checks``
counts those walks.  Per-site graphs are individually acyclic — each site
checks before adding edges — so any union cycle necessarily spans sites.

The detector also owns the sweep's *mutation gate*: a sweep whose union
mutation total is unchanged has nothing new to inspect and costs one
integer sum.  The total must be monotonic across site crashes — a failed
scheduler's count leaves the live sum, and its recovered successor counts
from zero — so the counts of every discarded scheduler are retired into
:attr:`_retired_mutations` at failure time (see :meth:`retire_site`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.dependency_graph import DependencyGraph, EdgeKind
from ..core.requests import AbortReason
from ..core.transaction import TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .router import TransactionRouter
    from .site import Site

__all__ = ["UnionCycleDetector"]

_FINISHED = (TransactionStatus.ABORTED, TransactionStatus.COMMITTED)


class UnionCycleDetector:
    """The global dependency graph of one router, and every check on it."""

    def __init__(self, router: "TransactionRouter"):
        self.router = router
        #: The union of the site graphs keyed by global tid; ``None`` with a
        #: single site, where no cross-site cycle can exist.
        self.graph: Optional[DependencyGraph] = None
        #: Per site: local source -> local target -> the global pair that
        #: local pair was translated to when it gained its first edge.
        self._translations: List[Dict[int, Dict[int, Tuple[int, int]]]] = []
        #: Global pair -> number of sites whose graphs link it.
        self._pair_counts: Dict[Tuple[int, int], int] = {}
        #: Local pair changes seen by any site hook.  The router compares it
        #: around a submit's fan-out: unchanged means the submit touched no
        #: dependency edge and so cannot have closed a cycle.
        self.pair_changes = 0
        #: Union-graph mutation total at the end of the last periodic sweep;
        #: a sweep whose total is unchanged has nothing new to inspect.
        self._swept_mutations = 0
        #: Mutations accumulated by schedulers that crashes discarded.  The
        #: sweep gate's total must be monotonic: without this, a site that
        #: failed (its count leaves the sum) and recovered (a fresh graph
        #: counts from zero) could return the sum to an already-seen value
        #: while a cycle closed in between, silencing the sweep for good.
        self._retired_mutations = 0
        self.reset()

    def reset(self) -> None:
        """Start from an empty global graph and watch every site's current
        scheduler graph (a reset swaps those graphs out); rewinds the
        mutation gate, since fresh graphs count from zero again."""
        router = self.router
        self._swept_mutations = 0
        self._retired_mutations = 0
        self._pair_counts = {}
        self.pair_changes = 0
        if router.site_count <= 1:
            return
        self.graph = DependencyGraph()
        self._translations = [{} for _ in router.sites]
        for site in router.sites:
            self.watch(site)

    # ------------------------------------------------------------------
    # Mirroring the site graphs
    # ------------------------------------------------------------------
    def watch(self, site: "Site") -> None:
        """Mirror ``site``'s current scheduler graph into the global graph
        (a fresh graph: construction, reset, or recovery after
        :meth:`retire_site` dropped the crashed graph's pairs)."""
        if self.graph is None:
            return
        site.scheduler.graph.pair_hook = partial(self._on_pair_change, site.site_id)

    def _on_pair_change(
        self, site_id: int, source: int, target: int, kind: Optional[EdgeKind]
    ) -> None:
        self.pair_changes += 1
        translations = self._translations[site_id]
        if kind is not None:
            local_map = self.router._local_map[site_id]
            global_source = local_map.get(source)
            global_target = local_map.get(target)
            if global_source is None or global_target is None:
                return  # an endpoint's transaction has finished globally
            pair = (global_source, global_target)
            targets = translations.get(source)
            if targets is None:
                targets = translations[source] = {}
            targets[target] = pair
            count = self._pair_counts.get(pair, 0)
            self._pair_counts[pair] = count + 1
            if not count:
                assert self.graph is not None
                self.graph.add_edge(global_source, global_target, kind)
            return
        targets = translations.get(source)
        if targets is None:
            return
        translated = targets.pop(target, None)
        if not targets:
            del translations[source]
        if translated is not None:
            self._unlink(translated)

    def _unlink(self, pair: Tuple[int, int]) -> None:
        """One site stopped linking ``pair``; drop it when none does."""
        count = self._pair_counts[pair] - 1
        if count:
            self._pair_counts[pair] = count
            return
        del self._pair_counts[pair]
        graph = self.graph
        assert graph is not None
        graph.remove_edge(*pair)
        self.release(pair[0])
        self.release(pair[1])

    def retire_site(self, site: "Site") -> None:
        """``site`` is crashing: fold its scheduler's mutation count into the
        sweep gate and drop every pair its graph contributed."""
        self._retired_mutations += site.scheduler.graph.mutations
        if self.graph is None:
            return
        site.scheduler.graph.pair_hook = None
        translations = self._translations[site.site_id]
        self._translations[site.site_id] = {}
        for targets in translations.values():
            for pair in targets.values():
                self._unlink(pair)

    def add_transaction(self, gtid: int) -> None:
        """Give a new global transaction its node (in begin order, which
        keeps most requester -> holder insertions order-respecting)."""
        if self.graph is not None:
            self.graph.add_node(gtid)

    def release(self, gtid: int) -> None:
        """Drop ``gtid``'s node once it has no edges and has finished."""
        graph = self.graph
        if (
            graph is None
            or not graph.has_node(gtid)
            or graph.successors(gtid)
            or graph.predecessors(gtid)
        ):
            return
        transaction = self.router.transactions.get(gtid)
        if transaction is None or transaction.status in _FINISHED:
            graph.remove_node(gtid)

    # ------------------------------------------------------------------
    # The union graph
    # ------------------------------------------------------------------
    def may_have_cycle(self) -> bool:
        """False proves the union graph acyclic; True means a walk is due."""
        graph = self.graph
        return graph is not None and bool(graph.back_edges())

    def global_successors(self, gtid: int) -> List[int]:
        """One transaction's successors in the union graph, ascending.

        A transaction absent from the router contributes no out-edges, and
        a finished transaction is no one's successor: the router has dropped
        its local tids, so no site's edge into a node it left behind (a
        pseudo-committed branch of a globally aborted transaction) maps back
        to it.
        """
        transactions = self.router.transactions
        graph = self.graph
        if graph is None or gtid not in transactions:
            return []
        successors: List[int] = []
        for successor in sorted(graph.successors(gtid)):
            transaction = transactions.get(successor)
            if transaction is not None and transaction.status not in _FINISHED:
                successors.append(successor)
        return successors

    def closes_cycle(self, gtid: int) -> bool:
        """True when the union graph has a cycle through ``gtid``.

        Only cycles through the submitting transaction can have been closed
        by the operation just routed, so a DFS from it suffices — and none
        is needed while the global graph records no back edge.
        """
        if not self.may_have_cycle():
            return False
        self.router.router_stats.cross_site_cycle_checks += 1
        stack = self.global_successors(gtid)
        seen = set(stack)
        while stack:
            node = stack.pop()
            if node == gtid:
                return True
            for successor in self.global_successors(node):
                if successor == gtid:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    def find_cycle_through(self, target: int) -> Optional[List[int]]:
        """Members of one union-graph cycle through ``target``, or ``None``.

        Plain reachability DFS from the target's successors back to the
        target, parents recorded for path reconstruction — the commit-time
        certification needs the members to pick its victim.  No walk runs
        while the global graph records no back edge.
        """
        if not self.may_have_cycle():
            return None
        self.router.router_stats.cross_site_cycle_checks += 1
        parent: Dict[int, Optional[int]] = {}
        stack: List[int] = []
        for successor in self.global_successors(target):
            parent[successor] = None
            stack.append(successor)
        while stack:
            node = stack.pop()
            for successor in self.global_successors(node):
                if successor == target:
                    members = [target]
                    cursor: Optional[int] = node
                    while cursor is not None:
                        members.append(cursor)
                        cursor = parent[cursor]
                    return members
                if successor not in parent:
                    parent[successor] = node
                    stack.append(successor)
        return None

    # ------------------------------------------------------------------
    # The mutation gate
    # ------------------------------------------------------------------
    def union_mutations(self) -> int:
        """Monotonic mutation total of the union graph, crashes included.

        Live graphs' counters plus the final counts of every scheduler a
        crash discarded — so failing and recovering a site can never return
        the total to a previously-seen value and mask work from the sweep.
        """
        return self._retired_mutations + sum(
            site.scheduler.graph.mutations
            for site in self.router.sites
            if site.status.is_up
        )

    # ------------------------------------------------------------------
    # The periodic sweep
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Detect and break union-graph cycles closed outside a submit.

        The per-submit check only covers cycles closed by the operation
        being routed; a queued request *granted* during another
        transaction's termination cascade can add commit-dependency edges no
        submit ever carried, closing a cross-site cycle with nobody
        submitting — the participants then wedge their mpl slots forever.
        The simulator runs this sweep periodically from an engine event (a
        context where aborting is safe: no scheduler callback is on the
        stack).  Gated on the dependency graphs' mutation counters, a quiet
        period costs one integer sum; past the gate, no walk runs while the
        global graph records no back edge.

        A late-closed cycle hurts either way: a wait cycle wedges its
        members' mpl slots, and a commit-dependency cycle that reaches the
        commit path drains branch by branch — each site's cascade respects
        only its *local* edges, so the members durably commit in a circular
        global order, violating the dependencies the protocol exists to
        respect.  (Under the two-phase commit protocol that second race is
        also closed at the commit itself: certification re-checks the union
        graph in the prepare step.)  The sweep catches the cycle while its
        members are still live and aborts the youngest ``ACTIVE`` one with
        ``AbortReason.DEADLOCK`` — the same newest-first victim rule as the
        per-submit check.  Returns the number of victims aborted.
        """
        router = self.router
        if router.site_count <= 1:
            return 0
        if self.union_mutations() == self._swept_mutations:
            return 0
        router.router_stats.cycle_sweeps += 1
        aborted = 0
        # One victim per detection pass: aborting a victim can break several
        # overlapping cycles at once, so victims are never batch-collected
        # from a stale graph — each abort is followed by a fresh look.
        while True:
            victim = self._find_sweep_victim()
            if victim is None:
                break
            router.router_stats.cross_site_deadlock_aborts += 1
            router._global_abort(router.transactions[victim], AbortReason.DEADLOCK)
            aborted += 1
        # Aborting mutates the graphs; snapshot afterwards so the next quiet
        # sweep is free again.
        self._swept_mutations = self.union_mutations()
        return aborted

    def _find_sweep_victim(self) -> Optional[int]:
        """The victim of the first abortable union-graph cycle, or ``None``.

        DFS over the union graph; in the first cycle found that has an
        ``ACTIVE`` member, the youngest such member is the victim.  Cycles
        with no abortable member are skipped (see :meth:`sweep`) and the
        search continues.
        """
        if not self.may_have_cycle():
            return None
        router = self.router
        router.router_stats.cross_site_cycle_checks += 1
        transactions = router.transactions
        color: Dict[int, int] = {}  # 1 = on the DFS path, 2 = finished
        path: List[int] = []
        roots = sorted(
            gtid
            for gtid, transaction in transactions.items()
            if transaction.status
            in (TransactionStatus.ACTIVE, TransactionStatus.PSEUDO_COMMITTED)
        )
        for root in roots:
            if root in color:
                continue
            color[root] = 1
            path.append(root)
            stack = [(root, iter(self.global_successors(root)))]
            while stack:
                node, successors = stack[-1]
                descended = False
                for successor in successors:
                    state = color.get(successor)
                    if state == 1:
                        cycle = path[path.index(successor):]
                        victim = max(
                            (
                                gtid
                                for gtid in cycle
                                if transactions[gtid].status
                                is TransactionStatus.ACTIVE
                            ),
                            default=None,
                        )
                        if victim is not None:
                            return victim
                    elif state is None:
                        color[successor] = 1
                        path.append(successor)
                        stack.append(
                            (successor, iter(self.global_successors(successor)))
                        )
                        descended = True
                        break
                if not descended:
                    stack.pop()
                    path.pop()
                    color[node] = 2
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<UnionCycleDetector graph={self.graph!r} "
            f"swept={self._swept_mutations} retired={self._retired_mutations}>"
        )
