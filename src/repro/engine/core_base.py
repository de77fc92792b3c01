"""Common machinery for every timing core model.

A core consumes a :class:`~repro.engine.stream.InstStream` through a
:class:`~repro.frontend.fetch.FetchUnit` and simulates its back end cycle by
cycle.  Subclasses implement the scheduling pipeline (dispatch / issue /
commit); this base class owns the run loop, the memory hierarchy, the
functional-unit pool, squash plumbing and the dataflow bookkeeping shared by
all models.
"""

from __future__ import annotations

import os
from itertools import compress, count
from operator import attrgetter, not_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.params import (
    BranchPredictorConfig,
    CoreConfig,
    MemoryConfig,
)
from repro.common.stats import Stats
from repro.engine.funits import FuPool
from repro.engine.stream import InstStream
from repro.frontend.fetch import FetchUnit
from repro.isa.instruction import DynInst
from repro.memory.hierarchy import MemoryHierarchy

#: Sentinel "no event scheduled" cycle: far enough out that the watchdog
#: or cycle budget always clamps a fast-forward jump first.
_FAR_FUTURE = 1 << 62

_n_pending = attrgetter("n_pending")


def _resolve_fast_forward(fast_forward) -> bool:
    """Map a ``run(fast_forward=...)`` argument to a bool.  ``None``
    defers to the ``REPRO_NO_SKIP`` environment variable."""
    if fast_forward is None:
        return os.environ.get("REPRO_NO_SKIP", "0") != "1"
    return bool(fast_forward)


class SimulationError(RuntimeError):
    """Raised when a simulation deadlocks, exceeds its cycle budget or
    violates an architectural invariant.

    ``details`` carries a structured snapshot (core name, cycle, debug
    state, ...) so harness layers can log actionable diagnostics instead
    of a bare message string.
    """

    def __init__(self, message: str, **details) -> None:
        super().__init__(message)
        self.details: Dict[str, object] = dict(details)


class InflightInst:
    """Per-core record of one in-flight dynamic instruction.

    The same :class:`DynInst` may be wrapped more than once across squashes;
    all scheduling state lives here, never on the trace record.
    """

    __slots__ = (
        "inst", "seq", "producers", "done_at", "issue_at", "committed",
        "dispatch_at", "fill_ready",
        # wakeup-driven readiness (maintained by CoreModel's calendar)
        "n_pending", "waiters",
        # register renaming state
        "phys", "prev_phys", "fresh_phys", "from_siq",
        # memory state
        "unresolved_older", "forward_store", "sentinel_on", "osca_skipped",
        "cache_miss",
        # slice-core steering tag ('A' / 'B' / 'Y')
        "queue_tag",
    )

    def __init__(self, inst: DynInst,
                 producers: Sequence["InflightInst"]) -> None:
        self.inst = inst
        self.seq = inst.seq
        self.producers = list(producers)
        # Conservative count of producers not yet complete; decremented by
        # the owning core's wakeup calendar.  Entries built outside
        # CoreModel.make_entry keep the conservative count and fall back to
        # the exact done_at poll in ready().
        self.n_pending = len(producers)
        self.waiters: List["InflightInst"] = []
        self.done_at: Optional[int] = None
        self.issue_at: Optional[int] = None
        self.dispatch_at: Optional[int] = None
        self.committed = False
        self.fill_ready: Optional[int] = None  # store line-fill (RFO) arrival
        self.phys: Optional[int] = None
        self.prev_phys: Optional[int] = None
        self.fresh_phys = False
        self.from_siq = False
        self.unresolved_older: Optional[list] = None
        self.forward_store: Optional["InflightInst"] = None
        self.sentinel_on: Optional["InflightInst"] = None
        self.osca_skipped = False
        self.cache_miss = False
        self.queue_tag = ""

    def ready(self, cycle: int) -> bool:
        """All source operands available by ``cycle``?

        Fast path: the wakeup calendar decrements ``n_pending`` as each
        producer's completion cycle is reached, so the common case is one
        integer compare.  The counter is conservative (it only reaches
        zero once every registered producer has genuinely completed), so
        a nonzero count falls back to the exact ``done_at`` poll — which
        keeps direct construction and fault-mutated producers correct.
        """
        if self.n_pending == 0:
            return True
        for producer in self.producers:
            if producer.done_at is None or producer.done_at > cycle:
                return False
        return True

    def ready_ignoring_loads(self, cycle: int) -> bool:
        """Readiness treating pending *memory* producers as blockers too —
        used by limit models that distinguish ILP from MLP."""
        return self.ready(cycle)

    @property
    def resolved(self) -> bool:
        """For memory ops: has the address been computed (issued)?"""
        return self.issue_at is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("C" if self.committed else
                 "D" if self.done_at is not None else
                 "I" if self.issue_at is not None else "W")
        return f"<#{self.seq} {self.inst.op.name} {state}>"


class CoreModel:
    """Abstract timing core.  Subclasses implement ``_reset``, ``_step`` and
    ``pipeline_empty`` and do their own dispatch/issue/commit inside
    ``_step``."""

    kind = "base"

    def __init__(self, cfg: CoreConfig,
                 mem_cfg: Optional[MemoryConfig] = None,
                 bp_cfg: Optional[BranchPredictorConfig] = None) -> None:
        self.cfg = cfg
        self.mem_cfg = mem_cfg if mem_cfg is not None else MemoryConfig()
        self.bp_cfg = bp_cfg if bp_cfg is not None else BranchPredictorConfig()
        self.stats = Stats()
        self.cycle = 0
        #: When enabled (``record_schedule=True`` on :meth:`run`), one
        #: ``(seq, inst, issue_at, done_at, commit_at, from_siq)`` tuple is
        #: appended per committed instruction.
        self.schedule: Optional[list] = None
        # Populated by reset():
        self.hier: Optional[MemoryHierarchy] = None
        self.stream: Optional[InstStream] = None
        self.fetch: Optional[FetchUnit] = None
        self.fu: Optional[FuPool] = None
        self.last_writer: Dict[int, InflightInst] = {}
        # Optional resilience hooks, armed per-run by :meth:`run`.
        self.sanitizer = None      # repro.engine.sanitizer.Sanitizer
        self.faults = None         # repro.engine.faults.FaultInjector
        # Optional observability hooks (repro.obs), armed per-run.  All
        # three are strictly read-only: attached or not, timing is
        # bit-identical.
        self.tracer = None         # repro.obs.events.Tracer
        self.sampler = None        # repro.obs.metrics.MetricsSampler
        self.accounting = None     # repro.obs.accounting.CycleAccounting
        #: Tier that executed the most recent :meth:`run` ("vector"/"pure").
        self.engine_tier_used = "pure"

    # -- lifecycle ---------------------------------------------------------

    def reset(self, trace: Sequence[DynInst]) -> None:
        """Prepare to simulate ``trace`` from a cold state."""
        self.stats = Stats()
        self.hier = MemoryHierarchy(self.mem_cfg, self.stats)
        self.stream = InstStream(trace)
        self.fetch = FetchUnit(self.cfg, self.stream, self.hier,
                               self.bp_cfg, self.stats)
        self.fu = FuPool(self.cfg)
        self.cycle = 0
        self.last_writer = {}
        self._last_commit_cycle = 0
        self._expected_commit_seq = 0
        self._last_squash_seq: Optional[int] = None
        self._last_squash_reason = ""
        # Wakeup calendar: completion cycle -> producers finishing then.
        # Fed by _schedule_wakeup() from every core's execute stage; its
        # minimum key doubles as the "next in-flight completion" event for
        # the fast-forward evaluators.
        self._wakeup_cal: Dict[int, List[InflightInst]] = {}
        # Integer mirror of stats.counters["committed"], so the hot loop's
        # warmup check avoids a dict lookup per cycle.
        self._committed = 0
        #: Whether readiness needs the ``InflightInst.ready`` poll.  The
        #: wakeup calendar keeps ``n_pending`` exact at ``_step`` time for
        #: every entry built by :meth:`make_entry`; only a fault injector
        #: moves a producer's ``done_at`` behind the calendar's back.  So
        #: without one, ``n_pending == 0`` alone decides readiness.  (The
        #: fast-forward evaluators run before the cycle's wakeups fire;
        #: an entry the poll would find ready then has its last producer's
        #: bucket at ``cycle`` on the calendar, which caps the hint at
        #: ``cycle`` and so skips nothing.)
        self.poll_ready = self.faults is not None
        # Fast-forward telemetry (plain attributes, not Stats counters:
        # counters must stay bit-identical with skipping on or off).
        self.ff_spans = 0
        self.ff_skipped_cycles = 0
        if self.schedule is not None:
            self.schedule = []
        self._reset()

    def run(self, trace: Sequence[DynInst], max_cycles: int = 50_000_000,
            warmup: int = 0, warm_icache: bool = False,
            record_schedule: bool = False, sanitize=None, faults=None,
            deadlock_cycles: Optional[int] = None, tracer=None,
            sampler=None, profiler=None, accounting=None,
            fast_forward=None, engine_tier: Optional[str] = None) -> Stats:
        """Simulate the whole trace; returns the statistics bag.

        ``warmup`` discards the counters accumulated while committing the
        first N instructions (caches, predictors and DRAM state stay warm),
        mirroring the paper's warm-up-then-measure methodology.
        ``warm_icache`` pre-installs every code line (for microbenchmarks
        whose timing should not include cold instruction fetch).
        ``record_schedule`` keeps a per-instruction (issue, complete,
        commit, dispatch) log for :mod:`repro.harness.timeline`
        rendering and :mod:`repro.obs.critpath` analysis.
        ``sanitize`` enables the microarchitectural invariant sanitizer:
        ``True``/``False`` force it, a :class:`~repro.engine.sanitizer.
        Sanitizer` instance is used as-is, and ``None`` defers to the
        ``REPRO_SANITIZE`` environment variable.  The sanitizer only reads
        simulator state, so enabling it never changes timing.
        ``faults`` optionally installs a deterministic
        :class:`~repro.engine.faults.FaultInjector` (self-test machinery).
        ``deadlock_cycles`` overrides ``cfg.deadlock_cycles``, the watchdog
        threshold on cycles between commits.
        ``tracer``/``sampler``/``profiler`` attach the observability layer
        (:mod:`repro.obs`): a structured event tracer, an interval metrics
        sampler and a host wall-clock self-profiler.  ``accounting``
        attaches a :class:`~repro.obs.accounting.CycleAccounting` observer
        that attributes every cycle to one CPI-stack component via the
        read-only ``_commit_head``/``_stall_structure`` hooks.  All four
        only read simulator state — attaching them never changes timing,
        and when left ``None`` (the default) the seed code paths run
        unchanged.
        ``fast_forward`` controls event-driven quiescence skipping: when
        the core's read-only ``_next_event_cycle`` hook proves every cycle
        up to the next event is a no-op, the loop jumps straight there,
        accruing the per-cycle stall counters for the span.  Timing and
        every counter are bit-identical either way.  ``None`` defers to
        the ``REPRO_NO_SKIP`` environment variable; skipping is disabled
        automatically when faults, the sanitizer or a metrics sampler
        (which must see every cycle) are attached.
        ``engine_tier`` selects the execution tier: ``None`` (default)
        auto-selects the kernelized vector tier when this core type has a
        registered kernel, no attached observer forces the fallback and
        ``REPRO_PURE_PY=1`` is not set (cycle accounting runs inside the
        CASINO kernel; every other observer, and accounting on InO,
        forces the interpreted loop); ``"pure"`` forces the interpreted
        loop; ``"vector"`` demands the kernel and raises when it cannot
        run (see :mod:`repro.engine.vectortier`).  Both tiers are
        bit-identical; ``self.engine_tier_used`` records the tier that
        actually executed.
        """
        from repro.engine.sanitizer import resolve_sanitizer
        self.sanitizer = resolve_sanitizer(sanitize)
        self.faults = faults
        self.tracer = tracer
        self.sampler = sampler
        self.accounting = accounting
        watchdog = (deadlock_cycles if deadlock_cycles is not None
                    else self.cfg.deadlock_cycles)
        self.schedule = [] if record_schedule else None
        # Vector tier: a kernelized twin of :meth:`_run_loop`, selected
        # only when it is provably equivalent (exact core type, and every
        # attached observer one the kernel hosts).  The kernel consumes
        # the trace's SoA columns; object records back the entries for
        # observers and post-mortem inspection.
        from repro.engine.soatrace import TraceArrays
        from repro.engine.vectortier import select_kernel
        observers = [name for name, observer in (
            ("faults", faults), ("sanitizer", self.sanitizer),
            ("sampler", sampler), ("tracer", tracer),
            ("accounting", accounting), ("profiler", profiler))
            if observer is not None]
        kernel = select_kernel(self, engine_tier, observers)
        self.engine_tier_used = "vector" if kernel is not None else "pure"
        arrays = None
        if isinstance(trace, TraceArrays):
            arrays = trace
            trace = arrays.materialize()
        elif kernel is not None:
            # A bare list is converted for this call only; long-lived
            # callers (the harness Runner) pass the SoA twin they keep.
            arrays = TraceArrays.from_instructions(trace)
        self.reset(trace)
        if profiler is not None:
            profiler.attach(self)
            profiler.begin_run()
        if warm_icache:
            for line in {inst.line for inst in trace}:
                self.hier.l1i.install_prefetch(line << 6, fill_at=-1)
        # Quiescence skipping is provably bit-identical only for the pure
        # timing path plus the observers that tolerate (tracer, profiler)
        # or handle (accounting, via on_idle_span) idle spans.  Faults
        # mutate state on arbitrary cycles and sanitizer/sampler assert or
        # sample per cycle, so any of them pins the loop to single steps.
        skip_ok = (_resolve_fast_forward(fast_forward)
                   and faults is None and self.sanitizer is None
                   and sampler is None)
        try:
            if kernel is not None:
                cycle, warm_snapshot, warm_cycle = kernel(
                    self, arrays, max_cycles, watchdog, warmup, skip_ok)
            else:
                cycle, warm_snapshot, warm_cycle = self._run_loop(
                    max_cycles, watchdog, warmup, skip_ok)
        finally:
            if profiler is not None:
                profiler.end_run()
        if self.sampler is not None:
            self.sampler.finish(self, cycle)
        if self.accounting is not None:
            self.accounting.finish(self, cycle)
        self.stats.add("cycles", cycle)
        if warm_snapshot is not None:
            for key, value in warm_snapshot.items():
                self.stats.counters[key] -= value
            self.stats.counters["cycles"] = cycle - warm_cycle
        return self.stats

    def _run_loop(self, max_cycles: int, watchdog: int, warmup: int,
                  skip_ok: bool):
        """The interpreted cycle loop (pure tier), with the kernels'
        contract: returns ``(final_cycle, warm_snapshot, warm_cycle)``."""
        cycle = 0
        warm_snapshot = None
        warm_cycle = 0
        counters = self.stats.counters
        fu = self.fu
        fetch = self.fetch
        fetch_queue = fetch.queue
        fetch_capacity = fetch.capacity
        fetch_tick = fetch.tick
        pipeline_empty = self.pipeline_empty
        acct = self.accounting
        slow_observers = (self.faults is not None or acct is not None
                          or self.sanitizer is not None
                          or self.sampler is not None)
        # Accounting is told whether anything committed or issued each
        # cycle: the commit mirror and the issue counters (each core
        # bumps a subset of these keys) moved since the last stepped
        # cycle.  Skipped spans move neither.
        counters_get = counters.get
        acct_committed = acct_issued = 0.0
        wakeup_cal = self._wakeup_cal
        fire_wakeups = self._fire_wakeups
        next_event_cycle = self._next_event_cycle
        # A non-empty decode queue is the common "not drained" case.
        while fetch_queue or not (fetch.drained and pipeline_empty()):
            if skip_ok:
                hint = next_event_cycle(cycle)
                if hint is not None:
                    target, rates = hint
                    wd_fire = self._last_commit_cycle + watchdog + 1
                    mc_fire = max_cycles + 1
                    stop = min(target, wd_fire, mc_fire)
                    if stop > cycle:
                        span = stop - cycle
                        for key, rate in rates.items():
                            counters[key] += float(rate * span)
                        if acct is not None:
                            acct.on_idle_span(self, cycle, stop - 1)
                        self.ff_spans += 1
                        self.ff_skipped_cycles += span
                        self._drain_wakeups(stop)
                        cycle = stop
                        if stop == wd_fire:
                            self.cycle = stop - 1
                            raise SimulationError(
                                f"{self.cfg.name}: no commit for "
                                f"{watchdog} cycles at cycle {cycle} "
                                f"(deadlock?) - {self._debug_state()}",
                                core=self.cfg.name,
                                check="deadlock_watchdog", cycle=cycle,
                                last_commit_cycle=self._last_commit_cycle,
                                committed=self._committed,
                                debug=self._debug_state())
                        if stop == mc_fire:
                            self.cycle = stop - 1
                            raise SimulationError(
                                f"{self.cfg.name}: exceeded {max_cycles} "
                                f"cycles - {self._debug_state()}",
                                core=self.cfg.name, check="cycle_budget",
                                cycle=cycle, max_cycles=max_cycles,
                                committed=self._committed,
                                debug=self._debug_state())
            self.cycle = cycle
            if wakeup_cal:
                bucket = wakeup_cal.pop(cycle, None)
                if bucket is not None:
                    fire_wakeups(bucket, cycle, wakeup_cal)
            if fu.claimed:
                fu.reset()
            self._step(cycle)
            if slow_observers:
                if self.faults is not None:
                    self.faults.on_cycle(self, cycle)
                if acct is not None:
                    committed = self._committed
                    issued = (counters_get("issued", 0.0)
                              + counters_get("issued_head", 0.0)
                              + counters_get("issued_spec", 0.0))
                    acct.on_cycle(self, cycle,
                                  committed != acct_committed,
                                  issued != acct_issued)
                    acct_committed = committed
                    acct_issued = issued
                if self.sanitizer is not None:
                    self.sanitizer.check_cycle(self, cycle)
                if self.sampler is not None:
                    self.sampler.on_cycle(self, cycle)
            # A fetch gated on a mispredict or an I-cache refill, or
            # with a full decode pipe, does nothing this cycle (tick's
            # own first tests), so skip the call.
            if (fetch.blocked_seq is None
                    and cycle >= fetch.stalled_until
                    and len(fetch_queue) < fetch_capacity):
                fetch_tick(cycle)
            cycle += 1
            if (warmup and warm_snapshot is None
                    and self._committed >= warmup):
                warm_snapshot = dict(counters)
                warm_cycle = cycle
                if acct is not None:
                    acct.on_warmup(self)
            if cycle - self._last_commit_cycle > watchdog:
                raise SimulationError(
                    f"{self.cfg.name}: no commit for {watchdog} cycles at "
                    f"cycle {cycle} (deadlock?) - {self._debug_state()}",
                    core=self.cfg.name, check="deadlock_watchdog",
                    cycle=cycle, last_commit_cycle=self._last_commit_cycle,
                    committed=self._committed,
                    debug=self._debug_state())
            if cycle > max_cycles:
                raise SimulationError(
                    f"{self.cfg.name}: exceeded {max_cycles} cycles - "
                    f"{self._debug_state()}",
                    core=self.cfg.name, check="cycle_budget", cycle=cycle,
                    max_cycles=max_cycles,
                    committed=self._committed,
                    debug=self._debug_state())
        return cycle, warm_snapshot, warm_cycle

    # -- hooks for subclasses -------------------------------------------------

    def _reset(self) -> None:
        raise NotImplementedError

    def _step(self, cycle: int) -> None:
        raise NotImplementedError

    def pipeline_empty(self) -> bool:
        raise NotImplementedError

    def _debug_state(self) -> str:  # pragma: no cover - diagnostics only
        return ""

    def _occupancy(self) -> Dict[str, tuple]:
        """``{structure: (occupancy, capacity)}`` for the sanitizer.

        Subclasses report every bounded structure they model (queues, ROB,
        LSQ, free lists); the sanitizer asserts ``0 <= occupancy <=
        capacity`` each cycle.
        """
        return {}

    def _commit_head(self) -> Optional[InflightInst]:
        """The oldest in-flight (uncommitted) instruction, or ``None`` when
        the back end is empty.

        This is the cycle-accounting attribution hook: on a cycle where
        nothing commits, :class:`~repro.obs.accounting.CycleAccounting`
        asks why *this* instruction is not committing.  Subclasses return
        the head of whatever structure holds the oldest instruction (ROB,
        SCB, first S-IQ, ...).  Strictly read-only.
        """
        return None

    def _stall_structure(self, head: InflightInst) -> str:
        """Short name of the structure currently holding ``head`` — the
        secondary ``component:structure`` detail key of the CPI stack
        (e.g. ``iq_head_blocked:siq0``).  Strictly read-only."""
        return ""

    def _issue_gate(self) -> Optional[InflightInst]:
        """The oldest *unissued* instruction gating in-order issue, or
        ``None`` for cores (OoO) whose issue stage has no head to block.

        Cycle accounting uses this to tell pure execution latency apart
        from the in-order penalty the paper targets: a cycle where the
        commit head is executing *and* nothing issued because this
        instruction's operands are unready is charged to
        ``iq_head_blocked`` (or ``load_miss`` when the blocking chain
        contains an outstanding miss), not to ``base``.  Read-only.
        """
        return None

    def ready_positions(self, entries: Sequence[InflightInst],
                        cycle: int) -> Iterator[int]:
        """Positions of the ready entries of ``entries``, in order.

        Without the poll (see :attr:`poll_ready`) readiness is
        ``n_pending == 0``, tested lazily at C speed so waiting entries
        cost no interpreted work; a caller may issue from ``entries``
        while iterating, since issuing never readies anything within the
        cycle.  With the poll, readiness is evaluated up front.
        """
        if self.poll_ready:
            flags = [entry.ready(cycle) for entry in entries]
        else:
            flags = map(not_, map(_n_pending, entries))
        return compress(count(), flags)

    # -- event-driven fast forward ---------------------------------------------

    def _next_event_cycle(self, cycle: int):
        """Fast-forward hook: prove the current state quiescent, or don't.

        Called at the top of the run loop (before this cycle's pool reset
        and ``_step``) and **strictly read-only**.  Returns ``None`` when
        any state change is (or may be) possible at ``cycle``; otherwise a
        ``(target, rates)`` pair where ``target > cycle`` is the earliest
        cycle at which the state can change and ``rates`` maps counter
        names to their exact per-cycle increment over the quiescent span
        ``cycle .. target-1``.  The base implementation never skips;
        subclasses combine the shared helpers below with their own
        structural-stall analysis.
        """
        return None

    def _finish_hint(self, cand: List[int], rates: Dict[str, int]):
        """Fold candidate events and the wakeup-calendar minimum into the
        ``(target, rates)`` hint.  The calendar covers every in-flight
        completion, so any readiness change is bounded by its minimum."""
        target = min(cand) if cand else _FAR_FUTURE
        cal = self._wakeup_cal
        if cal:
            first = min(cal)
            if first < target:
                target = first
        return target, rates

    def _fetch_quiescent(self, cycle: int, cand: List[int]) -> bool:
        """True when ``fetch.tick(cycle)`` is provably a no-op.

        Appends the icache-refill unblock cycle as an event candidate —
        both because fetch resumes then and because cycle accounting's
        frontend detail flips from ``refill`` to ``decode`` at that exact
        cycle.  A fetch blocked on an unresolved branch unblocks only via
        an issue (activity the other evaluator clauses bound), so it needs
        no candidate.
        """
        fetch = self.fetch
        if fetch.blocked_seq is not None:
            return True
        if fetch.stalled_until > cycle:
            cand.append(fetch.stalled_until)
            return True
        if fetch.stream.peek() is None:
            return True
        return len(fetch.queue) >= fetch.capacity

    def _dispatch_quiescent(self, cycle: int, cand: List[int],
                            space: int) -> bool:
        """True when a plain pop-into-queue dispatch stage (InO, SpecInO,
        CASINO) provably dispatches nothing at ``cycle``; appends the
        decode-ready cycle of the fetch-queue head as an event."""
        queue = self.fetch.queue
        if not queue:
            return True
        ready_at = queue[0].ready_at
        if ready_at > cycle:
            cand.append(ready_at)
            return True
        return space <= 0

    def _schedule_wakeup(self, entry: InflightInst) -> None:
        """Register a just-executed instruction's completion on the wakeup
        calendar.  Call from the execute stage once ``done_at`` is set."""
        done_at = entry.done_at
        if done_at is None:
            return
        if done_at <= self.cycle:
            waiters = entry.waiters
            if waiters:
                for waiter in waiters:
                    waiter.n_pending -= 1
                waiters.clear()
            return
        bucket = self._wakeup_cal.get(done_at)
        if bucket is None:
            self._wakeup_cal[done_at] = [entry]
        else:
            bucket.append(entry)

    @staticmethod
    def _fire_wakeups(producers: List[InflightInst], cycle: int,
                      cal: Dict[int, List[InflightInst]]) -> None:
        """Deliver one calendar bucket: decrement each waiter's pending
        count.  A producer whose ``done_at`` moved since scheduling (fault
        injection) is re-queued or dropped instead — ``n_pending`` only
        ever reaches zero once every producer has genuinely completed."""
        for producer in producers:
            done_at = producer.done_at
            if done_at is None:
                continue
            if done_at > cycle:
                cal.setdefault(done_at, []).append(producer)
                continue
            waiters = producer.waiters
            if waiters:
                for waiter in waiters:
                    waiter.n_pending -= 1
                waiters.clear()

    def _process_wakeups(self, cycle: int) -> None:
        producers = self._wakeup_cal.pop(cycle, None)
        if producers is not None:
            self._fire_wakeups(producers, cycle, self._wakeup_cal)

    def _drain_wakeups(self, stop: int) -> None:
        """Deliver every calendar bucket at or before ``stop`` (the target
        of a fast-forward jump), keeping the all-keys-in-the-future
        invariant that lets ``min(calendar)`` bound the next event."""
        cal = self._wakeup_cal
        while True:
            due = [key for key in cal if key <= stop]
            if not due:
                return
            for key in due:
                self._fire_wakeups(cal.pop(key), key, cal)

    # -- shared helpers ---------------------------------------------------------

    def make_entry(self, inst: DynInst) -> InflightInst:
        """Wrap a dispatched instruction, wiring true register dependences
        from the program-order last-writer map."""
        last_writer = self.last_writer
        producers = []
        for src in inst.srcs:
            writer = last_writer.get(src)
            if writer is not None:
                producers.append(writer)
        entry = InflightInst(inst, producers)
        cycle = entry.dispatch_at = self.cycle
        # Exact pending count + wakeup registration: producers already
        # complete by now never gate this entry; the rest decrement
        # n_pending when their calendar bucket fires.
        if producers:
            pending = 0
            for producer in producers:
                done_at = producer.done_at
                if done_at is None or done_at > cycle:
                    producer.waiters.append(entry)
                    pending += 1
            entry.n_pending = pending
        dst = inst.dst
        if dst is not None:
            last_writer[dst] = entry
        if self.faults is not None:
            self.faults.on_entry(entry)
        if self.tracer is not None:
            self.tracer.emit("dispatch", self.cycle, entry.seq,
                             op=inst.op_name,
                             producers=[p.seq for p in producers])
        return entry

    def note_commit(self, entry: InflightInst, cycle: int) -> None:
        """Common commit bookkeeping.  Asserts program-order commit — the
        architectural-correctness invariant every core must uphold."""
        if entry.seq != self._expected_commit_seq:
            raise SimulationError(
                f"{self.cfg.name}: out-of-order commit: expected seq "
                f"{self._expected_commit_seq}, got {entry.seq} at cycle "
                f"{cycle} - {self._debug_state()}",
                core=self.cfg.name, check="program_order", cycle=cycle,
                expected=self._expected_commit_seq, got=entry.seq,
                debug=self._debug_state())
        if self.sanitizer is not None:
            self.sanitizer.check_commit(self, entry, cycle)
        self._expected_commit_seq = entry.seq + 1
        entry.committed = True
        self.stats.counters["committed"] += 1.0
        self._committed += 1
        self._last_commit_cycle = cycle
        if self.schedule is not None:
            self.schedule.append((entry.seq, entry.inst, entry.issue_at,
                                  entry.done_at, cycle, entry.from_siq,
                                  entry.dispatch_at))
        if self.tracer is not None:
            self.tracer.emit("commit", cycle, entry.seq,
                             issue_at=entry.issue_at, done_at=entry.done_at,
                             from_siq=entry.from_siq)
        dst = entry.inst.dst
        if dst is not None and self.last_writer.get(dst) is entry:
            # Keep the map small: a committed producer is always ready.
            del self.last_writer[dst]

    def resolve_branch_if_gating(self, entry: InflightInst) -> None:
        """Unblock fetch when the gating mispredicted branch gets a
        completion time."""
        if (entry.inst.is_branch and self.fetch.blocked_seq == entry.seq
                and entry.done_at is not None):
            self.fetch.resolve_branch(entry.seq, entry.done_at)

    def trace_issue(self, entry: InflightInst, cycle: int, **data) -> None:
        """Emit the wakeup / issue / execute-done events for an
        instruction that just issued (call after ``done_at`` is set).

        ``wakeup`` is stamped with the cycle the last source operand
        became available; ``execute_done`` with the (already determined)
        completion cycle — :meth:`Tracer.events` re-sorts by cycle.
        """
        tracer = self.tracer
        if tracer is None:
            return
        ready_at = 0
        for producer in entry.producers:
            if producer.done_at is not None and producer.done_at > ready_at:
                ready_at = producer.done_at
        tracer.emit("wakeup", ready_at, entry.seq, issued_at=cycle)
        tracer.emit("issue", cycle, entry.seq, op=entry.inst.op_name,
                    ready_at=ready_at, **data)
        if entry.done_at is not None:
            tracer.emit("execute_done", entry.done_at, entry.seq,
                        issued_at=cycle)

    def load_latency(self, entry: InflightInst, cycle: int) -> int:
        """Latency of a load that goes to the L1D at ``cycle``."""
        latency = self.hier.load(entry.inst.mem_addr, cycle)
        entry.cache_miss = latency > self.hier.l1d.cfg.latency
        if self.tracer is not None and entry.cache_miss:
            self.tracer.emit("cache_miss", cycle, entry.seq,
                             addr=entry.inst.mem_addr, latency=latency)
        return latency

    def start_store_fill(self, entry: InflightInst, cycle: int) -> None:
        """Begin the write-allocate fill (RFO) for a committing store, so
        the fill overlaps with whatever else is in flight; retirement later
        waits for ``entry.fill_ready``."""
        latency = self.hier.store(entry.inst.mem_addr, cycle)
        hit = self.hier.l1d.cfg.latency
        entry.fill_ready = cycle + max(0, latency - hit)

    def store_fill_arrived(self, entry: InflightInst, cycle: int) -> bool:
        return entry.fill_ready is not None and cycle >= entry.fill_ready

    def squash_from(self, from_seq: int, cycle: int,
                    reason: str = "mem_order") -> None:
        """Rewind fetch to ``from_seq``; subclasses clear their structures
        and must drop ``last_writer`` entries for squashed instructions
        via :meth:`clean_last_writers`.

        ``reason`` records *why* the flush happened (``mem_order`` for a
        memory-order violation — the only cause in the current models —
        anything else for injected faults or future squash sources) so
        cycle accounting can attribute the recovery shadow.
        """
        self.stats.add("squashes")
        self._last_squash_seq = from_seq
        self._last_squash_reason = reason
        if self.tracer is not None:
            self.tracer.emit("squash", cycle, from_seq, from_seq=from_seq)
        self.fetch.squash(from_seq, cycle + self.cfg.mispredict_penalty)
        self.clean_last_writers(from_seq)

    def clean_last_writers(self, from_seq: int) -> None:
        """Drop last-writer links produced by squashed instructions.

        After a squash the architectural value of those registers is the one
        produced by the newest *surviving* writer; the map conservatively
        falls back to "ready" (squashed producers never gate anyone)."""
        stale = [reg for reg, entry in self.last_writer.items()
                 if entry.seq >= from_seq]
        for reg in stale:
            del self.last_writer[reg]
