"""Conventional out-of-order core (Section II-B baseline).

Full register renaming (48 INT / 24 FP physical registers), a 16-entry
CAM-wakeup issue queue with oldest-first select, a 32-entry ROB, and a
conventional LSU: 16-entry load queue plus a unified 8-entry store
queue/buffer.  Loads issue speculatively past unresolved stores, moderated
by a store-set memory dependence predictor (Chrysos & Emer); a resolving
store searches the LQ for prematurely-issued younger loads and squashes on
a match.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.params import NUM_FP_ARCH, NUM_INT_ARCH
from repro.engine.core_base import CoreModel, InflightInst


class StoreSets:
    """Store-set memory dependence predictor."""

    def __init__(self) -> None:
        self.ssit: Dict[int, int] = {}           # pc -> store-set id
        self.lfst: Dict[int, InflightInst] = {}  # set id -> last in-flight store
        self._next_set = 0

    def on_violation(self, store_pc: int, load_pc: int) -> None:
        """Merge the store and load into one set (simplified merge rule)."""
        sid = self.ssit.get(store_pc)
        if sid is None:
            sid = self.ssit.get(load_pc)
        if sid is None:
            sid = self._next_set
            self._next_set += 1
        self.ssit[store_pc] = sid
        self.ssit[load_pc] = sid

    def store_dispatched(self, store: InflightInst) -> None:
        sid = self.ssit.get(store.inst.pc)
        if sid is not None:
            self.lfst[sid] = store

    def predicted_store(self, load: InflightInst) -> Optional[InflightInst]:
        """LFST lookup at load *dispatch*: the in-flight store this load is
        predicted to depend on (Chrysos & Emer read the LFST in the front
        end, so only older stores can be returned)."""
        sid = self.ssit.get(load.inst.pc)
        if sid is None:
            return None
        store = self.lfst.get(sid)
        if store is not None and store.seq < load.seq:
            return store
        return None

    def drop_squashed(self, from_seq: int) -> None:
        stale = [sid for sid, st in self.lfst.items() if st.seq >= from_seq]
        for sid in stale:
            del self.lfst[sid]


class OutOfOrderCore(CoreModel):
    """Table I's ``OoO`` model."""

    kind = "ooo"

    def _reset(self) -> None:
        self.iq: List[InflightInst] = []        # program order
        self.rob: Deque[InflightInst] = deque()
        self.lq: Deque[InflightInst] = deque()  # program order
        self.sq: Deque[InflightInst] = deque()   # unified SQ + SB
        self.free_int = self.cfg.prf_int - NUM_INT_ARCH
        self.free_fp = self.cfg.prf_fp - NUM_FP_ARCH
        self.store_sets = StoreSets() if self.cfg.store_sets else None
        self.nolq = self.cfg.disambiguation in ("nolq", "nolq_osca")

    def pipeline_empty(self) -> bool:
        return not self.rob and not self.sq

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"rob={len(self.rob)} iq={list(self.iq)[:4]} "
                f"lq={len(self.lq)} sq={len(self.sq)} "
                f"free=({self.free_int},{self.free_fp})")

    def _occupancy(self):
        cfg = self.cfg
        occ = {
            "rob": (len(self.rob), cfg.rob_size),
            "iq": (len(self.iq), cfg.iq_size),
            "sq_sb": (len(self.sq), cfg.sq_sb_size),
            "prf_int": (cfg.prf_int - NUM_INT_ARCH - self.free_int,
                        cfg.prf_int - NUM_INT_ARCH),
            "prf_fp": (cfg.prf_fp - NUM_FP_ARCH - self.free_fp,
                       cfg.prf_fp - NUM_FP_ARCH),
        }
        if not self.nolq:
            occ["lq"] = (len(self.lq), cfg.lq_size)
        return occ

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        return self.rob[0] if self.rob else None

    def _stall_structure(self, head):
        return "rob" if head.issue_at is not None else "iq"

    def _step(self, cycle: int) -> None:
        """One cycle: SB retirement, commit, wakeup/select, dispatch.

        Store retirement and the select loop run inline on hoisted
        locals; commit and dispatch stay methods (the self-profiler's
        scopes) and are called only when they can make progress.  Event
        counters accumulate in locals and are added once per stage.
        """
        counters = self.stats.counters
        sq = self.sq
        # -- store retirement (SB part of the unified SQ/SB) ------------------
        if sq:
            head = sq[0]
            fill = head.fill_ready
            if (head.committed and fill is not None and fill <= cycle
                    and self.fu.take_store_port()):
                sq.popleft()
                counters["sq_reads"] += 1.0
                counters["sb_retires"] += 1.0
        rob = self.rob
        if rob:
            done = rob[0].done_at
            if done is not None and done <= cycle:
                self._commit(cycle)
        # -- issue (wakeup / select) -------------------------------------------
        iq = self.iq
        if iq:
            counters["iq_select"] += 1.0
            # The IQ is in program order, so this walk is the oldest-first
            # age-matrix select.  Issuing never wakes a consumer in the same
            # cycle (every latency is >= 1), so readiness can be tested as
            # the walk reaches each entry.
            width = self.cfg.width
            take = self.fu.take
            tracer = self.tracer
            picked = []             # IQ indices issued this cycle
            left = len(iq)          # unissued entries still in the IQ
            squashed_from = None    # a store's LQ search squashed from here
            issued = prf_reads = prf_writes = cam = 0
            for index in self.ready_positions(iq, cycle):
                entry = iq[index]
                if issued >= width:
                    break
                if squashed_from is not None and entry.seq >= squashed_from:
                    break  # removed by a squash earlier this cycle
                inst = entry.inst
                if inst.is_load:
                    pred = entry.sentinel_on
                    if pred is not None:
                        # Store-set dependence recorded at dispatch: wait
                        # for the predicted store to resolve (or vanish in
                        # a squash).
                        if pred.issue_at is None and pred in sq:
                            counters["storeset_blocks"] += 1.0
                            continue
                        entry.sentinel_on = None
                if not take(inst.op):
                    continue
                picked.append(index)
                issued += 1
                left -= 1
                entry.issue_at = cycle
                if inst.is_load:
                    self._execute_load(entry, cycle)
                elif inst.is_store:
                    entry.done_at = cycle + 1
                    victim = self._store_resolved(entry, cycle)
                    if victim is not None:
                        # The squash kept the IQ's prefix older than the
                        # victim, so the picked indices stay valid.
                        squashed_from = victim
                        left = sum(1 for e in self.iq if e.issue_at is None)
                else:
                    entry.done_at = cycle + inst.latency
                if tracer is not None:
                    self.trace_issue(entry, cycle)
                if inst.is_branch:
                    self.resolve_branch_if_gating(entry)
                self._schedule_wakeup(entry)
                prf_reads += len(inst.srcs)
                if inst.dst is not None:
                    prf_writes += 1
                # Completion broadcasts the dest tag across the IQ CAM.
                cam += left
            if issued:
                iq = self.iq
                for index in reversed(picked):
                    del iq[index]
                counters["issued"] += issued
                counters["prf_reads"] += prf_reads
                counters["prf_writes"] += prf_writes
                counters["iq_wakeup_cam"] += cam
        fq = self.fetch.queue
        if fq and fq[0].ready_at <= cycle:
            self._dispatch(cycle)

    # -- commit -----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self.rob
        width = self.cfg.width
        nolq = self.nolq
        note_commit = self.note_commit
        committed = freed = lq_reads = 0
        while rob and committed < width:
            entry = rob[0]
            done = entry.done_at
            if done is None or done > cycle:
                break
            inst = entry.inst
            if inst.is_load:
                if nolq:
                    # On-commit value-check: re-search the SB up to the
                    # oldest store that was unresolved at issue time.
                    if entry.unresolved_older and self._value_check_fails(
                            entry, cycle):
                        break
                else:
                    # Loads commit in order: the head load is the LQ's
                    # oldest entry.
                    self.lq.popleft()
                    lq_reads += 1
            rob.popleft()
            if inst.is_store:
                # Enters the SB part; the write-allocate fill starts now.
                self.start_store_fill(entry, cycle)
            dst = inst.dst
            if dst is not None:
                if dst >= NUM_INT_ARCH:
                    self.free_fp += 1
                else:
                    self.free_int += 1
                freed += 1
            note_commit(entry, cycle)
            committed += 1
        counters = self.stats.counters
        if lq_reads:
            counters["lq_reads"] += lq_reads
        if freed:
            counters["freelist_ops"] += freed
        if committed:
            counters["rob_reads"] += committed

    def _value_check_fails(self, entry: InflightInst, cycle: int) -> bool:
        """NoLQ commit-time value check of a load; squashes from the load
        on a mismatch."""
        counters = self.stats.counters
        counters["sq_searches"] += 1.0
        inst = entry.inst
        if not any(s.inst.overlaps(inst) for s in entry.unresolved_older):
            return False
        counters["mem_order_violations"] += 1.0
        if self.tracer is not None:
            self.tracer.emit("storeset_violation", cycle, entry.seq,
                             mechanism="value_check")
        self._squash(entry.seq, cycle)
        return True

    def _free_reg(self, dst: int) -> None:
        if dst >= NUM_INT_ARCH:
            self.free_fp += 1
        else:
            self.free_int += 1
        self.stats.counters["freelist_ops"] += 1.0

    def _execute_load(self, entry: InflightInst, cycle: int) -> None:
        # Forwarding search over the unified SQ/SB, which is in program
        # order: the last resolved, overlapping older store is the
        # youngest one.
        counters = self.stats.counters
        counters["sq_searches"] += 1.0
        seq = entry.seq
        inst = entry.inst
        forward = None
        unresolved = []
        for store in self.sq:
            if store.seq >= seq:
                break
            if store.issue_at is None:
                unresolved.append(store)
            elif store.inst.overlaps(inst):
                forward = store
        if self.nolq:
            # On-commit value-check (Figure 9's OoO+NoLQ variant): snapshot
            # the unresolved older stores instead of entering the LQ.
            if forward is not None:
                unresolved = [s for s in unresolved if s.seq > forward.seq]
            entry.unresolved_older = unresolved
        else:
            counters["lq_writes"] += 1.0
        entry.forward_store = forward
        if forward is not None:
            entry.done_at = cycle + 2
            counters["stl_forwards"] += 1.0
        else:
            entry.done_at = cycle + self.load_latency(entry, cycle)

    def _store_resolved(self, store: InflightInst,
                        cycle: int) -> Optional[int]:
        """A store's address resolved: search the LQ for violations.
        Returns the sequence number squashed from, or ``None``."""
        if self.store_sets is not None:
            sid = self.store_sets.ssit.get(store.inst.pc)
            if sid is not None and self.store_sets.lfst.get(sid) is store:
                del self.store_sets.lfst[sid]
        if self.nolq:
            return None  # violations are found by the loads at commit
        self.stats.counters["lq_searches"] += 1.0
        seq = store.seq
        sinst = store.inst
        # The LQ is in program order: the first issued, overlapping younger
        # load that did not forward from this store or a younger one is
        # the oldest violator.
        victim = None
        for load in self.lq:
            if (load.seq > seq and load.issue_at is not None
                    and load.inst.overlaps(sinst)):
                source = load.forward_store
                if source is None or source.seq < seq:
                    victim = load
                    break
        if victim is None:
            return None
        self.stats.counters["mem_order_violations"] += 1.0
        if self.tracer is not None:
            self.tracer.emit("storeset_violation", cycle, victim.seq,
                             mechanism="lq_search", store=seq)
        if self.store_sets is not None:
            self.store_sets.on_violation(sinst.pc, victim.inst.pc)
        self._squash(victim.seq, cycle)
        return victim.seq

    # -- squash ------------------------------------------------------------------

    def _squash(self, from_seq: int, cycle: int) -> None:
        self.iq = [e for e in self.iq if e.seq < from_seq]
        while self.lq and self.lq[-1].seq >= from_seq:
            self.lq.pop()
        while self.sq and self.sq[-1].seq >= from_seq:
            self.sq.pop()
        while self.rob and self.rob[-1].seq >= from_seq:
            entry = self.rob.pop()
            if entry.inst.dst is not None:
                self._free_reg(entry.inst.dst)  # return the allocation
        if self.store_sets is not None:
            self.store_sets.drop_squashed(from_seq)
        self.squash_from(from_seq, cycle)

    # -- dispatch (rename + allocate) ----------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        cfg = self.cfg
        width = cfg.width
        fq = self.fetch.queue
        rob, iq, lq, sq = self.rob, self.iq, self.lq, self.sq
        nolq = self.nolq
        store_sets = self.store_sets
        make_entry = self.make_entry
        counters = self.stats.counters
        # Free slots at the start of the cycle; this cycle's dispatches
        # are counted off them below.
        window_free = cfg.rob_size - len(rob)
        if cfg.iq_size - len(iq) < window_free:
            window_free = cfg.iq_size - len(iq)
        lq_free = cfg.lq_size - len(lq)
        sq_free = cfg.sq_sb_size - len(sq)
        dispatched = rat_reads = rat_writes = sq_writes = 0
        while dispatched < width and fq:
            head = fq[0]
            if head.ready_at > cycle:
                break
            inst = head.inst
            if dispatched >= window_free:
                counters["dispatch_stall_window"] += 1.0
                break
            if inst.is_load and not nolq and lq_free <= 0:
                counters["dispatch_stall_lq"] += 1.0
                break
            if inst.is_store and sq_free <= 0:
                counters["dispatch_stall_sq"] += 1.0
                break
            dst = inst.dst
            if dst is not None:
                if dst >= NUM_INT_ARCH:
                    if self.free_fp <= 0:
                        counters["dispatch_stall_prf"] += 1.0
                        break
                    self.free_fp -= 1
                else:
                    if self.free_int <= 0:
                        counters["dispatch_stall_prf"] += 1.0
                        break
                    self.free_int -= 1
                rat_writes += 1
            fq.popleft()
            entry = make_entry(inst)
            entry.fresh_phys = dst is not None
            rat_reads += len(inst.srcs)
            iq.append(entry)
            rob.append(entry)
            if inst.is_load:
                if not nolq:
                    lq.append(entry)
                    lq_free -= 1
                if store_sets is not None:
                    entry.sentinel_on = store_sets.predicted_store(entry)
            elif inst.is_store:
                sq.append(entry)
                sq_free -= 1
                sq_writes += 1
                if store_sets is not None:
                    store_sets.store_dispatched(entry)
            dispatched += 1
        if dispatched:
            # Renaming one destination is one free-list pop and one RAT
            # write.
            counters["rat_reads"] += rat_reads
            if rat_writes:
                counters["freelist_ops"] += rat_writes
                counters["rat_writes"] += rat_writes
            counters["rob_writes"] += dispatched
            counters["iq_writes"] += dispatched
            if sq_writes:
                counters["sq_writes"] += sq_writes
            counters["dispatched"] += dispatched

    def _can_alloc(self, dst: int) -> bool:
        """Read-only twin of dispatch's register allocation, for the
        fast-forward check."""
        return (self.free_fp if dst >= NUM_INT_ARCH else self.free_int) > 0

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        cand = []
        sq = self.sq
        if sq and sq[0].committed:
            fill = sq[0].fill_ready
            if fill is not None and fill > cycle:
                cand.append(fill)
            else:
                return None  # SB head retires
        rob = self.rob
        if rob:
            done = rob[0].done_at
            if done is not None and done <= cycle:
                return None  # commits (or value-check squashes) this cycle
        rates = {}
        iq = self.iq
        if iq:
            rates["iq_select"] = 1
            blocks = 0
            for index in self.ready_positions(iq, cycle):
                entry = iq[index]
                inst = entry.inst
                if inst.is_load and entry.sentinel_on is not None:
                    pred = entry.sentinel_on
                    if pred.issue_at is None and pred in sq:
                        blocks += 1
                        continue
                    return None  # clearing the stale sentinel mutates state
                if not self.fu.zero_capacity(inst.op):
                    return None  # a ready candidate would issue
            if blocks:
                rates["storeset_blocks"] = blocks
        queue = self.fetch.queue
        if queue:
            fhead = queue[0]
            if fhead.ready_at > cycle:
                cand.append(fhead.ready_at)
            else:
                cfg = self.cfg
                inst = fhead.inst
                if len(rob) >= cfg.rob_size or len(iq) >= cfg.iq_size:
                    rates["dispatch_stall_window"] = 1
                elif (inst.is_load and not self.nolq
                        and len(self.lq) >= cfg.lq_size):
                    rates["dispatch_stall_lq"] = 1
                elif inst.is_store and len(sq) >= cfg.sq_sb_size:
                    rates["dispatch_stall_sq"] = 1
                elif inst.dst is not None and not self._can_alloc(inst.dst):
                    rates["dispatch_stall_prf"] = 1
                else:
                    return None  # head would dispatch
        if not self._fetch_quiescent(cycle, cand):
            return None
        return self._finish_hint(cand, rates)
