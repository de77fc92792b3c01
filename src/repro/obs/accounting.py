"""Per-core CPI-stack / top-down cycle accounting.

A :class:`CycleAccounting` observer is attached to a core for one run
(``core.run(..., accounting=CycleAccounting())``).  Every simulated cycle
is attributed to exactly **one** component, so the components sum exactly
to the cycle count — the accounting identity, enforced as a sanitizer
invariant (``repro.engine.sanitizer.check_accounting``) and by
``tests/test_accounting.py`` on every core model.

Components (the order of :data:`COMPONENTS` is the display order):

``base``
    Cycles where at least one instruction committed, plus cycles where
    the oldest in-flight instruction was executing a non-miss operation
    while the issue stage kept making progress (pipeline latency a
    perfect scheduler would also pay).
``frontend``
    No commit and the back end is empty of uncommitted work: fetch is
    gated on an unresolved mispredicted branch, refilling after a
    redirect, stalled on an I-cache miss, or draining the decode pipe.
``iq_head_blocked``
    Nothing committed *and* nothing issued because the oldest unissued
    instruction sits at the head of an in-order queue with unready
    source operands (and no outstanding cache-missing load in its
    producer chain) — the stall CASINO's cascaded S-IQs exist to hide.
    Structurally zero on the OoO core, whose issue stage has no head
    (:meth:`~repro.engine.core_base.CoreModel._issue_gate`).
``structural``
    The oldest instruction is ready (or finished) but cannot issue or
    commit: FU/port conflicts, full SCB/SB/PRF/data-buffer, issue-width
    or queue-priority starvation.
``load_miss``
    The oldest instruction is a cache-missing load in flight, or is
    blocked on operands whose (transitive) producer chain contains an
    outstanding cache-missing load.
``store_order_violation``
    Recovery shadow of a memory-order-violation squash: cycles between
    the flush and the re-commit of the squashed instruction in which the
    commit head is refetched work (or the window is refilling).
``squash``
    The same recovery shadow for squashes with any *other* cause
    (injected faults today; branch-squash models tomorrow).

The observer is strictly read-only: it inspects the core through the
``_commit_head()`` / ``_issue_gate()`` / ``_stall_structure()`` hooks
and public state, so an
accounting-enabled run is bit-identical in simulated timing (and final
``Stats``) to a bare run — tested in ``tests/test_accounting.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

#: CPI-stack component names, in display order.
COMPONENTS = (
    "base",
    "frontend",
    "iq_head_blocked",
    "structural",
    "load_miss",
    "store_order_violation",
    "squash",
)

#: Bound on the producer-chain walk when looking for a missed load.
_CHASE_LIMIT = 64


class CycleAccounting:
    """Attributes every simulated cycle to one CPI-stack component."""

    def __init__(self) -> None:
        self.components: Dict[str, int] = {c: 0 for c in COMPONENTS}
        #: Secondary ``component:structure`` breakdown (e.g. which cascade
        #: queue the blocked head was sitting in).
        self.detail: Dict[str, int] = {}
        self.total_cycles = 0
        self.committed = 0
        self._warm_components: Optional[Dict[str, int]] = None
        self._warm_detail: Dict[str, int] = {}
        self._warm_cycles = 0
        self._warm_committed = 0
        self._finished = False

    # -- recording (called from the core's run loop) -----------------------

    def on_cycle(self, core, cycle: int, committed_any: bool,
                 issued_any: bool) -> None:
        """Attribute one stepped cycle.  Called after the cycle's stages,
        before fetch; the run loop says whether anything committed or
        issued this cycle (it sees its own counters move, which are
        bulk-flushed on the vector tier)."""
        self.total_cycles += 1
        if committed_any:
            self.components["base"] += 1
            return
        component, structure = self._classify(core, cycle, issued_any)
        self.components[component] += 1
        if structure:
            key = f"{component}:{structure}"
            self.detail[key] = self.detail.get(key, 0) + 1

    def on_idle_span(self, core, start: int, end: int) -> None:
        """Vectorised attribution for a fast-forwarded quiescent span
        (``start..end`` inclusive).

        The engine only skips a span when no architectural state changes
        across it: nothing commits, nothing issues, and every input to
        :meth:`_classify` (commit head, squash shadow, fetch gating,
        operand readiness) is frozen, because any cycle on which one of
        them *would* change is an event candidate bounding the span.  The
        classification of ``start`` therefore holds for every cycle in the
        span.
        """
        span = end - start + 1
        self.total_cycles += span
        component, structure = self._classify(core, start, False)
        self.components[component] += span
        if structure:
            key = f"{component}:{structure}"
            self.detail[key] = self.detail.get(key, 0) + span

    def on_warmup(self, core) -> None:
        """Snapshot at the warm-up boundary so :meth:`report` can exclude
        warm-up cycles, mirroring the engine's counter snapshot (taken
        just before, so ``committed`` is current on either tier)."""
        self._warm_components = dict(self.components)
        self._warm_detail = dict(self.detail)
        self._warm_cycles = self.total_cycles
        self._warm_committed = int(core.stats.counters.get("committed", 0.0))

    def finish(self, core, cycle: int) -> None:
        self.committed = int(core.stats.counters.get("committed", 0.0))
        self._finished = True

    # -- classification ----------------------------------------------------

    def _classify(self, core, cycle: int, issued_any: bool) -> "tuple[str, str]":
        head = core._commit_head()
        # Squash recovery shadow: between a flush and the re-commit of the
        # squashed instruction, cycles spent waiting on refetched work (or
        # an empty window) belong to the squash, not to the generic stall
        # the refetched head happens to exhibit.
        squash_seq = core._last_squash_seq
        if (squash_seq is not None
                and core._expected_commit_seq <= squash_seq
                and (head is None or head.seq >= squash_seq)):
            if core._last_squash_reason == "mem_order":
                return "store_order_violation", ""
            return "squash", ""
        if head is None:
            return "frontend", self._frontend_detail(core, cycle)
        return self._classify_head(core, head, cycle, issued_any)

    @staticmethod
    def _frontend_detail(core, cycle: int) -> str:
        fetch = core.fetch
        if fetch.blocked_seq is not None:
            return "mispredict"
        if cycle < fetch.stalled_until:
            return "refill"
        return "decode"

    def _classify_head(self, core, head, cycle: int,
                       issued_any: bool) -> "tuple[str, str]":
        if head.done_at is not None:
            # Issued: executing, or finished and waiting to commit.
            if head.done_at > cycle:
                if head.inst.is_load and head.cache_miss:
                    return "load_miss", ""
                # The commit head is covering execution latency.  If the
                # issue stage *also* made no progress because its in-order
                # head has unready operands, the cycle is an overlap loss
                # an OoO scheduler would have hidden — the in-order
                # penalty, not base latency.
                if not issued_any:
                    gate = core._issue_gate()
                    if gate is not None and not gate.ready(cycle):
                        structure = core._stall_structure(gate)
                        if self._blocked_on_load_miss(gate, cycle):
                            return "load_miss", structure
                        return "iq_head_blocked", structure
                return "base", ""
            # Finished but not committed this cycle: commit-side resource
            # (SB full, store fill pending, value-check, ...).
            return "structural", core._stall_structure(head)
        # Unissued head.
        if head.ready(cycle):
            return "structural", core._stall_structure(head)
        if self._blocked_on_load_miss(head, cycle):
            return "load_miss", core._stall_structure(head)
        return "iq_head_blocked", core._stall_structure(head)

    @staticmethod
    def _blocked_on_load_miss(head, cycle: int) -> bool:
        """Does the head's unfinished producer chain contain an outstanding
        cache-missing load?  Bounded breadth-first walk."""
        frontier = [p for p in head.producers
                    if p.done_at is None or p.done_at > cycle]
        seen = set()
        while frontier and len(seen) < _CHASE_LIMIT:
            producer = frontier.pop()
            if id(producer) in seen:
                continue
            seen.add(id(producer))
            if producer.inst.is_load and producer.cache_miss:
                return True
            frontier.extend(p for p in producer.producers
                            if p.done_at is None or p.done_at > cycle)
        return False

    # -- reporting ---------------------------------------------------------

    def identity_error(self) -> Optional[str]:
        """``None`` when components sum exactly to counted cycles."""
        total = sum(self.components.values())
        if total != self.total_cycles:
            return (f"CPI-stack components sum to {total}, "
                    f"but {self.total_cycles} cycles were counted")
        return None

    def report(self) -> dict:
        """JSON-exportable CPI stack (warm-up excluded when armed)."""
        if self._warm_components is not None:
            components = {c: self.components[c] - self._warm_components[c]
                          for c in COMPONENTS}
            detail = {k: v - self._warm_detail.get(k, 0)
                      for k, v in self.detail.items()
                      if v - self._warm_detail.get(k, 0)}
            cycles = self.total_cycles - self._warm_cycles
            committed = self.committed - self._warm_committed
        else:
            components = dict(self.components)
            detail = dict(self.detail)
            cycles = self.total_cycles
            committed = self.committed
        stack = {c: (components[c] / committed if committed else 0.0)
                 for c in COMPONENTS}
        fractions = {c: (components[c] / cycles if cycles else 0.0)
                     for c in COMPONENTS}
        return {
            "components": components,
            "detail": detail,
            "total_cycles": cycles,
            "committed": committed,
            "cpi": cycles / committed if committed else 0.0,
            "cpi_stack": stack,
            "fractions": fractions,
            "identity_error": self.identity_error(),
        }


def format_stack_table(reports: Dict[str, dict], float_fmt: str = "{:.3f}"):
    """Rows for ``harness.tables.format_table``: one row per core, one
    CPI-stack column (cycles lost per committed instruction) per
    component, plus the total CPI.  ``reports`` maps core name to a
    :meth:`CycleAccounting.report` dict."""
    headers = ["core", "cpi"] + [c for c in COMPONENTS]
    rows = []
    for name, report in reports.items():
        stack = report["cpi_stack"]
        rows.append([name, report["cpi"]] + [stack[c] for c in COMPONENTS])
    return headers, rows
