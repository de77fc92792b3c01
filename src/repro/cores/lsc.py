"""Load Slice Core (Carlson et al., ISCA 2015) — Section VI-A2 baseline.

Backward address-generating slices are learned iteratively at runtime in an
Instruction Slice Table (IST): when a memory operation dispatches, the
static producers of its address register are marked; when a marked
instruction dispatches, its own producers are marked, so slices grow one
level per loop iteration.  Memory operations and slice members dispatch to a
bypass queue (B-IQ) and issue in program order but independently of the main
queue (A-IQ).  There is no register renaming: cross-queue WAR/WAW hazards
are enforced by stalling, and since all address generation is in order,
memory-order violations cannot occur.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.engine.core_base import CoreModel, InflightInst


class InstructionSliceTable:
    """PC-indexed set of instructions known to lead to an address."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self.pcs: Dict[int, int] = {}  # pc -> insertion stamp (FIFO evict)
        self._stamp = 0

    def __contains__(self, pc: int) -> bool:
        return pc in self.pcs

    def add(self, pc: int) -> None:
        if pc in self.pcs:
            return
        if len(self.pcs) >= self.capacity:
            victim = min(self.pcs, key=self.pcs.get)
            del self.pcs[victim]
        self._stamp += 1
        self.pcs[pc] = self._stamp


class LoadSliceCore(CoreModel):
    """The LSC model used in Figure 6."""

    kind = "lsc"

    def _reset(self) -> None:
        self.ist = InstructionSliceTable(self.cfg.ist_entries)
        self.biq: Deque[InflightInst] = deque()
        self.aiq: Deque[InflightInst] = deque()
        self.rob: Deque[InflightInst] = deque()
        self.sb: Deque[InflightInst] = deque()
        # Static producer tracking for IST learning (architectural).
        self.reg_writer_pc: Dict[int, int] = {}
        self._set_queues((self.biq, "issued_biq"), (self.aiq, "issued_aiq"))

    def _set_queues(self, *order) -> None:
        """Install the in-order issue queues as ``(queue, issue counter)``
        pairs in issue priority order."""
        self._issue_order = order
        self._queues = tuple(queue for queue, _ in order)

    def pipeline_empty(self) -> bool:
        return not self.rob and not self.sb

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"biq={list(self.biq)[:3]} aiq={list(self.aiq)[:3]} "
                f"rob={len(self.rob)} sb={len(self.sb)}")

    def _occupancy(self):
        return {"biq": (len(self.biq), self.cfg.biq_size),
                "aiq": (len(self.aiq), self.cfg.aiq_size),
                "rob": (len(self.rob), self.cfg.rob_size),
                "sb": (len(self.sb), self.cfg.sq_sb_size)}

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        return self.rob[0] if self.rob else None

    def _stall_structure(self, head):
        if head.issue_at is not None:
            return "rob"
        return {"A": "aiq", "B": "biq"}.get(head.queue_tag, "rob")

    def _issue_gate(self):
        """Oldest unissued instruction across the in-order queue heads."""
        heads = [q[0] for q in self._queues if q]
        return min(heads, key=lambda e: e.seq) if heads else None

    def _step(self, cycle: int) -> None:
        """One cycle: SB retirement, commit, in-order issue from each
        queue head, dispatch.

        Store retirement and issue run inline on hoisted locals; commit
        and dispatch stay methods (the self-profiler's scopes) and are
        called only when they can make progress.
        """
        counters = self.stats.counters
        sb = self.sb
        # -- store buffer ---------------------------------------------------------
        if sb:
            fill = sb[0].fill_ready
            if (fill is not None and fill <= cycle
                    and self.fu.take_store_port()):
                sb.popleft()
                counters["sb_retires"] += 1.0
        rob = self.rob
        if rob:
            done = rob[0].done_at
            if done is not None and done <= cycle:
                self._commit(cycle)
        # -- issue: each queue in priority order, sharing the width -------------
        budget = self.cfg.width
        poll = self.poll_ready
        take = self.fu.take
        issued_total = 0
        for queue, counter in self._issue_order:
            issued = 0
            while budget > 0 and queue:
                entry = queue[0]
                if entry.n_pending and (not poll or not entry.ready(cycle)):
                    break
                if entry.inst.dst is not None and self._hazard(entry):
                    counters["hazard_stalls"] += 1.0
                    break
                if not take(entry.inst.op):
                    break
                queue.popleft()
                self._execute(entry, cycle)
                issued += 1
                budget -= 1
            if issued:
                counters[counter] += issued
                issued_total += issued
        if issued_total:
            counters["issued"] += issued_total
        fq = self.fetch.queue
        if fq and fq[0].ready_at <= cycle:
            self._dispatch(cycle)

    # -- commit ---------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self.rob
        sb = self.sb
        sb_size = self.cfg.sq_sb_size
        width = self.cfg.width
        note_commit = self.note_commit
        committed = 0
        while rob and committed < width:
            entry = rob[0]
            done = entry.done_at
            if done is None or done > cycle:
                break
            if entry.inst.is_store:
                if len(sb) >= sb_size:
                    break
                sb.append(entry)
                self.start_store_fill(entry, cycle)
            rob.popleft()
            note_commit(entry, cycle)
            committed += 1

    # -- issue ------------------------------------------------------------------------

    def _hazard(self, entry: InflightInst) -> bool:
        """Without renaming, a WAW/WAR hazard with an older *unissued*
        instruction in the other queue(s) blocks issue.

        Every unissued instruction waits in one of the in-order queues
        (and every queued one is unissued), so the older unissued
        instructions are the queue prefixes older than ``entry``.
        """
        dst = entry.inst.dst
        if dst is None:
            return False
        seq = entry.seq
        for queue in self._queues:
            for other in queue:
                if other.seq >= seq:
                    break
                inst = other.inst
                if inst.dst == dst or dst in inst.srcs:
                    return True
        return False

    def _execute(self, entry: InflightInst, cycle: int) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        if inst.is_load:
            forward = self._forwarding_store(entry)
            entry.forward_store = forward
            if forward is not None:
                entry.done_at = cycle + 2
                self.stats.counters["stl_forwards"] += 1.0
            else:
                entry.done_at = cycle + self.load_latency(entry, cycle)
        elif inst.is_store:
            entry.done_at = cycle + 1
        else:
            entry.done_at = cycle + inst.latency
        if self.tracer is not None:
            self.trace_issue(entry, cycle, queue=entry.queue_tag)
        if inst.is_branch:
            self.resolve_branch_if_gating(entry)
        self._schedule_wakeup(entry)

    def _forwarding_store(self, load: InflightInst) -> Optional[InflightInst]:
        """Older stores are all resolved (in-order AGIs in the B-IQ).

        The youngest older issued store that overlaps wins; buffered
        stores have committed, so they are older than anything in the ROB
        and only matter when it has none.
        """
        seq = load.seq
        inst = load.inst
        best = None
        for store in self.rob:
            if store.seq >= seq:
                break
            sinst = store.inst
            if (sinst.is_store and store.issue_at is not None
                    and sinst.overlaps(inst)):
                best = store
        if best is not None:
            return best
        for store in reversed(self.sb):
            if store.inst.overlaps(inst):
                return store
        return None

    # -- dispatch + IST learning ---------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        fq = self.fetch.queue
        rob = self.rob
        rob_size = self.cfg.rob_size
        width = self.cfg.width
        steer = self._steer
        reg_writer_pc = self.reg_writer_pc
        ist = self.ist
        tracer = self.tracer
        dispatched = yielded = 0
        while dispatched < width and fq:
            head = fq[0]
            if head.ready_at > cycle or len(rob) >= rob_size:
                break
            inst = head.inst
            queue, cap, tag = steer(inst)
            if len(queue) >= cap:
                break
            fq.popleft()
            # IST learning: iterative backward dependence analysis, one
            # level per pass.
            if inst.is_mem:
                # Mark the producers of the address operand(s).
                if inst.srcs:
                    pc = reg_writer_pc.get(inst.srcs[0])
                    if pc is not None:
                        ist.add(pc)
            elif tag != "A":
                # A marked (slice) instruction marks its own producers.
                for src in inst.srcs:
                    pc = reg_writer_pc.get(src)
                    if pc is not None:
                        ist.add(pc)
            entry = self.make_entry(inst)
            entry.queue_tag = tag
            queue.append(entry)
            rob.append(entry)
            dst = inst.dst
            if dst is not None:
                reg_writer_pc[dst] = inst.pc
            dispatched += 1
            if tag == "Y":
                # Freeway's yielding queue.
                yielded += 1
                if tracer is not None:
                    # Steering into the yielding queue is Freeway's
                    # analogue of a queue promotion.
                    tracer.emit("siq_promote", cycle, entry.seq,
                                from_queue="B", to_queue="Y")
        if dispatched:
            counters = self.stats.counters
            counters["dispatched"] += dispatched
            if yielded:
                counters["yiq_steered"] += yielded

    def _steer(self, inst):
        """Read-only steering decision: ``(queue, capacity, tag)``.
        Memory operations and IST-marked slice members go to the B-IQ."""
        if inst.is_mem or inst.pc in self.ist.pcs:
            return self.biq, self.cfg.biq_size, "B"
        return self.aiq, self.cfg.aiq_size, "A"

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        cand = []
        sb = self.sb
        if sb:
            fill = sb[0].fill_ready
            if fill is not None and fill > cycle:
                cand.append(fill)
            else:
                return None  # SB head retires
        rob = self.rob
        if rob:
            head = rob[0]
            done = head.done_at
            if done is not None and done <= cycle:
                if not (head.inst.is_store
                        and len(sb) >= self.cfg.sq_sb_size):
                    return None  # head would commit
                # full SB blocks commit silently (no counter)
        rates = {}
        poll = self.poll_ready
        for queue in self._queues:
            if not queue:
                continue
            head = queue[0]
            if head.n_pending and (not poll or not head.ready(cycle)):
                continue  # completion is on the wakeup calendar
            if self._hazard(head):
                rates["hazard_stalls"] = rates.get("hazard_stalls", 0) + 1
                continue
            if not self.fu.zero_capacity(head.inst.op):
                return None  # head would issue
        fq = self.fetch.queue
        if fq:
            fhead = fq[0]
            if fhead.ready_at > cycle:
                cand.append(fhead.ready_at)
            elif len(rob) < self.cfg.rob_size:
                target, cap, _ = self._steer(fhead.inst)
                if len(target) < cap:
                    return None  # head would dispatch
        if not self._fetch_quiescent(cycle, cand):
            return None
        return self._finish_hint(cand, rates)
