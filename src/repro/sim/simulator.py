"""The closed-queuing transaction-processing simulator (Section 5.1, Figure 3).

One :class:`Simulation` object models the whole system of the paper's Figure 3:

* a fixed population of terminals, each thinking for an exponential time and
  then submitting a transaction;
* a ready queue bounded by the multiprogramming level (``mpl_level``);
* a :class:`~repro.distributed.router.TransactionRouter` over one or more
  sites (``site_count``, ``replication``), each running the recoverability-
  or commutativity-based scheduler of :mod:`repro.core.scheduler` (or the
  strict-2PL baseline) and deciding, per operation, whether the request
  executes, blocks, or aborts the transaction; with one site this is exactly
  the centralized system of the paper;
* scripted site crash/recover events (``failure_schedule``) whose meaning
  the selected ``replication_protocol`` decides: writers of a failed site
  abort and restart everywhere, while a recovered replica either stays
  unreadable until a committed write (available-copies) or catches up from
  a live copy at recovery time (quorum, primary-copy);
* a periodic union-graph sweep (multi-site runs only) that detects and
  breaks cross-site cycles closed during termination cascades, which the
  per-submit check cannot see;
* a pluggable commit protocol (``commit_protocol``) deciding when a
  distributed commit reports durable: the one-shot fan-out baseline, or
  2PC with commit-time cycle certification, W-ack durability under quorum
  replication, failure-triggered re-replication and an optional
  ``prepare_timeout``;
* a resource phase per executed operation (constant ``step_time`` under
  infinite resources; CPU then disk queueing under finite resources),
  charged through the router to one shared global pool or to the domains
  of the sites that executed the operation's replicas
  (``resource_placement``), with a ``msg_time`` network delay on work
  routed away from the transaction's home site;
* immediate restart of aborted transactions at the end of the ready queue,
  re-executing the same operations;
* completion at pseudo-commit or commit, after which the issuing terminal
  starts thinking about its next transaction.

The simulator communicates with the scheduler through the listener interface:
grants of blocked requests, aborts chosen by the deadlock/cycle detector and
durable commits of pseudo-committed transactions all arrive as callbacks, and
the simulator reacts by scheduling zero-delay events so that it never re-enters
the scheduler from inside one of its callbacks.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Optional, Tuple

from ..core.backends import ConcurrencyControlBackend
from ..core.errors import SimulationError
from ..core.scheduler import (
    AbortReason,
    RequestHandle,
    SchedulerListener,
)
from ..core.specification import Event, Invocation
from ..core.transaction import TransactionStatus
from .engine import EventEngine
from .metrics import MetricsCollector, RunMetrics
from .params import SimulationParameters
from .random_source import RandomSource
from .resources import make_resource_charger
from .routing import create_router
from .terminals import Terminal, TerminalPool
from .workload import TransactionTemplate, Workload, make_workload

__all__ = ["LogicalTransaction", "Simulation", "run_simulation"]

# Restart backoff for transactions stuck in repeated deadlock aborts (see
# Simulation.on_aborted).  The threshold is the number of attempts a logical
# transaction may burn before its restarts start backing off; the cap bounds
# the escalation at ``cap * step_time``.
_BACKOFF_ATTEMPTS = 8
_BACKOFF_CAP = 64


@dataclass(slots=True)
class LogicalTransaction:
    """A terminal-submitted transaction, surviving across restarts.

    The scheduler sees a fresh transaction id per attempt; the logical
    transaction keeps the original submission time (response time includes
    restart work) and the fixed operation list.
    """

    logical_id: int
    terminal: Terminal
    template: TransactionTemplate
    submit_time: float
    #: ``len(template)``, cached at submission: the per-operation completion
    #: handler compares against it once per executed operation.
    total_steps: int = 0
    attempts: int = 0
    steps_done: int = 0
    scheduler_tid: Optional[int] = None
    completed: bool = False
    completion_time: Optional[float] = None
    slot_released: bool = False

    @property
    def remaining_steps(self) -> int:
        return len(self.template) - self.steps_done

    def next_step(self) -> Tuple[str, Invocation]:
        return self.template.steps[self.steps_done]


class Simulation(SchedulerListener):
    """One simulation run for a single parameter point and seed."""

    def __init__(
        self,
        params: SimulationParameters,
        workload_kind: str = "readwrite",
        workload: Optional[Workload] = None,
        backend: Optional["ConcurrencyControlBackend"] = None,
        pool_requests: bool = True,
    ):
        self.params = params
        self.engine = EventEngine()
        # Typed event kinds for the simulator's recurring producers, bound
        # once here (registration order is construction order, hence
        # deterministic).  Each hot-loop event is then a plain
        # ``(kind, *payload)`` tuple drained through the engine's dispatch
        # table instead of a per-event ``functools.partial``.
        self._kind_submit = self.engine.register_kind(self._submit)
        self._kind_op_finished = self.engine.register_kind(self._operation_finished)
        self._kind_fanout = self.engine.register_kind(self._complete_after_fanout)
        self._kind_restart = self.engine.register_kind(self._restart)
        self._kind_sweep = self.engine.register_kind(self._sweep)
        root_rng = RandomSource(params.seed)
        self.workload_rng = root_rng.spawn("workload")
        self.think_rng = root_rng.spawn("think")
        self.resource_rng = root_rng.spawn("resources")
        self.workload = workload or make_workload(params, self.workload_rng, workload_kind)
        # ``params.policy`` selects the concurrency-control backend per site
        # (the semantic scheduler, or strict 2PL for TWO_PHASE_LOCKING);
        # passing a ``backend`` instance overrides that choice outright, but
        # only for the centralized single-site configuration — multiple sites
        # each need a backend of their own.
        if backend is not None and (params.site_count != 1 or params.failure_schedule):
            raise SimulationError(
                "an explicit backend instance requires site_count=1 and no "
                "failure schedule; select per-site backends through params.policy"
            )
        self.router = create_router(
            site_count=params.site_count,
            replication=params.replication,
            policy=params.policy,
            fair=params.fair_scheduling,
            record_history=False,
            retain_terminated=False,
            backend_factory=(lambda: backend) if backend is not None else None,
            replication_protocol=params.replication_protocol,
            quorum_read=params.quorum_read,
            quorum_write=params.quorum_write,
            commit_protocol=params.commit_protocol,
            prepare_timeout=params.prepare_timeout,
            pool_requests=pool_requests,
        )
        self.router.add_listener(self)
        # The commit protocol may need to schedule future work (the
        # two-phase prepare timeout); hand it the engine's clock, plus the
        # kind registry so its recurring timeout drains as a typed member.
        self.router.commit_protocol.attach_clock(
            self.engine.schedule, register_kind=self.engine.register_kind
        )
        self.workload.register_objects(self.router)
        # The hardware: one shared pool (the paper's model) or one domain
        # per site, per ``params.resource_placement``.  The router owns the
        # charging — the simulator only sees "this operation's physical
        # phase is done" — so hardware follows data placement.
        self.resources = make_resource_charger(self.engine, params, self.resource_rng)
        self.router.attach_resources(self.resources)
        self.terminals = TerminalPool(params.num_terminals)
        self.metrics = MetricsCollector()

        self.ready_queue: Deque[LogicalTransaction] = deque()
        self.active_count = 0
        self.completions = 0
        self._next_logical_id = 0
        self._by_scheduler_tid: Dict[int, LogicalTransaction] = {}
        self._measuring = params.warmup_completions == 0

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> RunMetrics:
        """Run until ``total_completions`` transactions complete.

        ``max_events`` caps the *total* events of the run.  When it is left
        at the default, the safety valve is progress-aware instead: the run
        may process any number of events overall, but raises if no
        transaction completes within a large fixed budget.  A genuine
        configuration error (a zero-delay event loop, a wedged scheduler)
        makes no progress and still trips the valve, while a heavily
        thrashing high-contention run — which completes work, just slowly —
        is allowed to finish.  Driving the engine in between-completion
        segments does not change which events run or their order, so
        simulation streams are unaffected.
        """
        self.metrics.begin_measurement(
            0.0,
            self.router.stats,
            self.resources.utilisation_summary(),
            self.router.replication_summary(),
            self.router.commit_summary(),
        )
        self._schedule_site_events()
        self._schedule_cycle_sweep()
        for terminal in self.terminals:
            terminal.think_then_submit_typed(
                self.engine, self.think_rng, self.params.ext_think_time, self._kind_submit
            )
        if max_events is not None:
            self.engine.run(until=self._done, max_events=max_events)
        else:
            stall_budget = max(
                2_000_000,
                200 * self.params.total_completions * self.params.max_length,
            )
            # Each completion requests an engine stop (see ``_complete``), so
            # the engine runs flag-checked between-completion segments —
            # identical event streams to the old per-event predicate, without
            # two interpreter calls per event to evaluate it.
            while not self._done():
                before = self.completions
                self.engine.run_until_stop(max_events=stall_budget)
                if self.completions == before and not self._done():
                    raise SimulationError(
                        "event queue drained before the stop condition was met"
                    )
        return self.metrics.freeze(
            self.engine.now,
            self.router.stats,
            self.engine.events_processed,
            resource_summary=self.resources.utilisation_summary(),
            replication_summary=self.router.replication_summary(),
            commit_summary=self.router.commit_summary(),
        )

    def _schedule_site_events(self) -> None:
        """Turn the failure schedule into engine events (site crash/recover)."""
        for time, action, site_id in self.params.failure_schedule:
            self.engine.schedule_at(time, partial(self._site_event, action, site_id))

    def _schedule_cycle_sweep(self) -> None:
        """Periodically sweep the union graph for late-closing cycles.

        Cross-site cycles closed during a termination cascade (a queued
        request re-blocked when another transaction's locks drain) are
        invisible to the per-submit check.  The router's global dependency
        graph records them the moment they close; the sweep breaks them from
        a plain engine event — a context where aborting the victim is safe —
        every operation time.  The sweep is gated on the dependency graphs'
        mutation counters, so quiet periods cost one integer sum, and past
        the gate it walks the graph only while a cycle-closing edge is
        recorded.  With one site no event is ever scheduled and the
        centralized event stream is untouched.
        """
        if self.params.site_count <= 1:
            return
        self.engine.schedule(self.params.step_time, (self._kind_sweep,))

    def _sweep(self, member: tuple) -> None:
        """Typed handler: one union-graph sweep, then reschedule.

        The member carries no payload, so the very same tuple is re-scheduled
        for the next period — the recurring sweep allocates nothing at all.
        """
        if self._done():
            return
        self.router.sweep_global_cycles()
        self.engine.schedule(self.params.step_time, member)

    def _site_event(self, action: str, site_id: int) -> None:
        site = self.router.sites[site_id]
        # Tolerate schedules that fail an already-failed site (or recover a
        # live one): the scripted scenario keeps its meaning, nothing breaks.
        if action == "fail" and site.status.is_up:
            self.router.fail_site(site_id)
        elif action == "recover" and not site.status.is_up:
            self.router.recover_site(site_id)

    def _done(self) -> bool:
        return self.completions >= self.params.total_completions

    # ------------------------------------------------------------------
    # Reuse across parameter points
    # ------------------------------------------------------------------
    #: Parameter fields a reused simulation may change between points.  They
    #: shape the *load* (how many transactions run concurrently, how long),
    #: not the *system*: everything reachable from object registration — the
    #: database, placement, protocols, hardware shape — must match, or the
    #: constructed managers would not be the ones a fresh build produces.
    _RESET_OVERRIDABLE = ("mpl_level", "total_completions", "warmup_completions")

    def reset(self, params: SimulationParameters) -> None:
        """Restore seed-equivalent initial state for another run.

        After ``reset(params)`` the simulation behaves exactly like a freshly
        constructed ``Simulation(params, ...)``: the random streams rewind to
        their seed-derived starts, every scheduler and object manager returns
        to its registered initial state, and the engine clock restarts at
        zero — while the expensive construction work (object registration,
        compatibility-table compilation, router wiring) is reused.  ``params``
        may differ from the constructing parameters only in the sweep knobs
        listed in ``_RESET_OVERRIDABLE``; anything else raises
        :class:`~repro.core.errors.SimulationError`.
        """
        overrides = {name: getattr(self.params, name) for name in self._RESET_OVERRIDABLE}
        if dataclasses.astuple(params.replace(**overrides)) != dataclasses.astuple(self.params):
            raise SimulationError(
                "reset() may only change "
                + "/".join(self._RESET_OVERRIDABLE)
                + "; other parameters shape the constructed system and need a new Simulation"
            )
        self.params = params
        self.engine.reset()
        root_rng = RandomSource(params.seed)
        self.workload_rng = root_rng.spawn("workload")
        self.think_rng = root_rng.spawn("think")
        self.resource_rng = root_rng.spawn("resources")
        self.workload.reset(self.workload_rng)
        self.router.reset()
        # The charger is cheap and holds queueing state; rebuild it like the
        # constructor does (the engine reference it captures was reset in
        # place, so its clock is this run's clock).
        self.resources = make_resource_charger(self.engine, params, self.resource_rng)
        self.router.attach_resources(self.resources)
        self.terminals = TerminalPool(params.num_terminals)
        self.metrics = MetricsCollector()
        self.ready_queue.clear()
        self.active_count = 0
        self.completions = 0
        self._next_logical_id = 0
        self._by_scheduler_tid.clear()
        self._measuring = params.warmup_completions == 0

    # ------------------------------------------------------------------
    # Arrival, admission and the ready queue
    # ------------------------------------------------------------------
    def _submit(self, member: tuple) -> None:
        """Typed handler ``(kind, terminal)``: a terminal's think time
        expired and it submits a new transaction (Figure 3 arrival path)."""
        if self._done():
            return
        terminal: Terminal = member[1]
        self._next_logical_id += 1
        terminal.submitted += 1
        template = self.workload.next_transaction()
        transaction = LogicalTransaction(
            logical_id=self._next_logical_id,
            terminal=terminal,
            template=template,
            submit_time=self.engine.now,
            total_steps=len(template.steps),
        )
        if self.active_count < self.params.mpl_level:
            self._start(transaction)
        else:
            self.ready_queue.append(transaction)

    def _start(self, transaction: LogicalTransaction) -> None:
        """Begin a (possibly restarted) transaction at the scheduler."""
        self.active_count += 1
        transaction.attempts += 1
        transaction.steps_done = 0
        transaction.slot_released = False
        scheduler_transaction = self.router.begin(label=f"L{transaction.logical_id}")
        transaction.scheduler_tid = scheduler_transaction.tid
        self._by_scheduler_tid[scheduler_transaction.tid] = transaction
        self._issue_next_operation(transaction)

    def _admit_from_ready_queue(self) -> None:
        while self.ready_queue and self.active_count < self.params.mpl_level:
            self._start(self.ready_queue.popleft())

    def _release_slot(self, transaction: LogicalTransaction) -> None:
        """Free the transaction's multiprogramming slot exactly once."""
        if transaction.slot_released:
            return
        transaction.slot_released = True
        self.active_count -= 1
        self._admit_from_ready_queue()

    # ------------------------------------------------------------------
    # Operation lifecycle
    # ------------------------------------------------------------------
    def _issue_next_operation(self, transaction: LogicalTransaction) -> None:
        object_name, invocation = transaction.next_step()
        assert transaction.scheduler_tid is not None
        handle = self.router.submit(transaction.scheduler_tid, object_name, invocation)
        if handle.executed:
            self._run_resource_phase(transaction)
        # BLOCKED: wait for on_granted.  ABORTED: on_aborted already scheduled
        # the restart — nothing to do here.

    def _run_resource_phase(self, transaction: LogicalTransaction) -> None:
        # A typed member rather than a partial: this runs once per executed
        # operation, and the engine drains the tuple straight into
        # ``_operation_finished`` with no function object allocated.
        assert transaction.scheduler_tid is not None
        self.router.perform_step(
            transaction.scheduler_tid,
            (self._kind_op_finished, transaction, transaction.attempts),
        )

    def _operation_finished(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction, attempt)``: the physical
        phase of one executed operation completed.

        This is the simulator's hottest handler (once per executed
        operation), so the per-event work is inlined into its frame: the
        staleness check — the attempt the phase belonged to was aborted
        while CPU/disk/network work was in flight, either already restarted
        (attempts moved on) or with the restart still queued
        (``scheduler_tid`` cleared by ``on_aborted``) — then the next
        operation's submit, or the commit once the template is exhausted.
        """
        transaction: LogicalTransaction = member[1]
        scheduler_tid = transaction.scheduler_tid
        if (
            transaction.attempts != member[2]
            or transaction.completed
            or scheduler_tid is None
        ):
            return
        steps_done = transaction.steps_done + 1
        transaction.steps_done = steps_done
        if steps_done < transaction.total_steps:
            object_name, invocation = transaction.template.steps[steps_done]
            handle = self.router.submit(scheduler_tid, object_name, invocation)
            if handle.executed:
                # The attempt is unchanged (checked above), so the drained
                # member is re-armed as the next phase's continuation.
                self.router.perform_step(scheduler_tid, member)
            # BLOCKED: wait for on_granted.  ABORTED: on_aborted already
            # scheduled the restart — nothing to do here.
            return
        # Commit fan-out: branches at sites other than the transaction's
        # home pay the network cost before the commit lands (zero without a
        # network model, in which case no event is scheduled at all).
        delay = self.router.commit_network_delay(scheduler_tid)
        if delay > 0:
            self.engine.schedule(delay, (self._kind_fanout, transaction, member[2]))
        else:
            self._complete(transaction)

    def _complete_after_fanout(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction, attempt)``: commit fan-out
        network delay elapsed (same staleness rule as the phase handler)."""
        transaction: LogicalTransaction = member[1]
        if (
            transaction.attempts != member[2]
            or transaction.completed
            or transaction.scheduler_tid is None
        ):
            return
        self._complete(transaction)

    # ------------------------------------------------------------------
    # Completion (pseudo-commit or commit)
    # ------------------------------------------------------------------
    def _complete(self, transaction: LogicalTransaction) -> None:
        assert transaction.scheduler_tid is not None
        status = self.router.commit(transaction.scheduler_tid)
        if status is TransactionStatus.ABORTED:
            # Two-phase certification found a dependency cycle and the
            # committing transaction was the victim: its on_aborted callback
            # already scheduled the restart; this attempt never completed.
            return
        transaction.completed = True
        transaction.completion_time = self.engine.now
        self.completions += 1
        # Hand control back to ``run`` before the next event, exactly where
        # the old completion predicate would have flipped.
        self.engine.request_stop()
        self._maybe_start_measuring()
        if self._measuring:
            self.metrics.record_completion(
                response_time=self.engine.now - transaction.submit_time,
                pseudo=status is TransactionStatus.PSEUDO_COMMITTED,
            )
        transaction.terminal.completed += 1
        transaction.terminal.think_then_submit_typed(
            self.engine, self.think_rng, self.params.ext_think_time, self._kind_submit
        )
        if status is TransactionStatus.COMMITTED:
            self._by_scheduler_tid.pop(transaction.scheduler_tid, None)
            self._release_slot(transaction)
        elif not self.params.pseudo_commit_holds_slot:
            self._release_slot(transaction)
        # Otherwise the slot is held until the durable commit arrives through
        # the on_committed callback.

    def _maybe_start_measuring(self) -> None:
        if self._measuring:
            return
        if self.completions >= self.params.warmup_completions:
            self._measuring = True
            self.metrics.begin_measurement(
                self.engine.now,
                self.router.stats,
                self.resources.utilisation_summary(),
                self.router.replication_summary(),
                self.router.commit_summary(),
            )

    # ------------------------------------------------------------------
    # SchedulerListener callbacks (never re-enter the scheduler directly)
    # ------------------------------------------------------------------
    def on_granted(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        transaction = self._by_scheduler_tid.get(transaction_id)
        if transaction is None or transaction.completed:
            return
        self._run_resource_phase(transaction)

    def on_aborted(self, transaction_id: int, reason: AbortReason) -> None:
        transaction = self._by_scheduler_tid.pop(transaction_id, None)
        if transaction is None or transaction.completed:
            return
        transaction.scheduler_tid = None
        # A transaction aborted because no live site could serve its operation
        # retries after one operation time rather than immediately: with the
        # needed copies still down it would otherwise spin through abort and
        # restart in zero simulated time.
        delay = self.params.step_time if reason is AbortReason.SITE_UNAVAILABLE else 0.0
        # Deadlock-abort livelock breaker.  Templates are fixed per logical
        # transaction and victim selection is deterministic, so under heavy
        # contention a set of mutually conflicting transactions can re-form
        # the same deadlock cycle on every immediate restart, forever (seen
        # at mpl=8 over 24 objects).  After several failed attempts the
        # restart backs off by an escalating, attempt-derived delay, which
        # staggers the group and breaks the lock-step.  The delay is a pure
        # function of the attempt count — no RNG is consulted — and the
        # threshold is high enough that runs which make normal progress
        # replay bit-identically.
        if transaction.attempts > _BACKOFF_ATTEMPTS:
            over = transaction.attempts - _BACKOFF_ATTEMPTS
            delay = max(delay, self.params.step_time * min(over, _BACKOFF_CAP))
        self.engine.schedule(delay, (self._kind_restart, transaction))

    def on_committed(self, transaction_id: int) -> None:
        transaction = self._by_scheduler_tid.pop(transaction_id, None)
        if transaction is None:
            return
        if self.params.pseudo_commit_holds_slot and transaction.completed:
            self.engine.schedule(0.0, partial(self._release_slot, transaction))

    # ------------------------------------------------------------------
    # Restarts
    # ------------------------------------------------------------------
    def _restart(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction)``: requeue an aborted
        transaction at the end of the ready queue."""
        transaction: LogicalTransaction = member[1]
        if self._measuring:
            self.metrics.record_restart()
        self._release_slot(transaction)
        if self._done():
            return
        self.ready_queue.append(transaction)
        self._admit_from_ready_queue()


def run_simulation(
    params: SimulationParameters,
    workload_kind: str = "readwrite",
    max_events: Optional[int] = None,
    backend: Optional[ConcurrencyControlBackend] = None,
    pool_requests: bool = True,
) -> RunMetrics:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(
        params,
        workload_kind=workload_kind,
        backend=backend,
        pool_requests=pool_requests,
    ).run(max_events=max_events)
