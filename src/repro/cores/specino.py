"""Idealised SpecInO limit model (Section II-C, Figure 2).

An InO core augmented with a sliding speculative window over its 16-entry
IQ: each cycle the window examines ``WS`` entries; ready instructions are
issued immediately (out of program order), otherwise the window slides by
``SO`` entries toward younger instructions.  The study assumes ideal
renaming and ideal memory disambiguation ("instructions are renamed properly
and the architectural state is updated correctly"), so there are no PRF
limits and no order-violation squashes; the ``Non-mem`` variant forbids
speculative issue of loads/stores to separate the ILP contribution from MLP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.engine.core_base import CoreModel, InflightInst


class SpecInOCore(CoreModel):
    """The SpecInO[WS, SO] limit machine of Figure 2."""

    kind = "specino"

    def _reset(self) -> None:
        self.iq: Deque[InflightInst] = deque()
        self.window: list = []   # issued-not-committed, kept sorted by seq
        self.sb: Deque[InflightInst] = deque()
        self.spec_pos = 1
        self.next_commit = 0     # program-order commit cursor (seq)

    def pipeline_empty(self) -> bool:
        return not self.iq and not self.window and not self.sb

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"iq={list(self.iq)[:4]} window={self.window[:4]} "
                f"sb={len(self.sb)} spec_pos={self.spec_pos} "
                f"next_commit={self.next_commit}")

    def _occupancy(self):
        return {"iq": (len(self.iq), self.cfg.iq_size),
                "window": (len(self.window), self.cfg.rob_size),
                "sb": (len(self.sb), self.cfg.sq_sb_size)}

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        """The instruction at the commit cursor: in the window if it issued
        (possibly speculatively), else the oldest unissued IQ entry."""
        if self.window and self.window[0].seq == self.next_commit:
            return self.window[0]
        for entry in self.iq:
            if entry.issue_at is None:
                return entry
        return self.window[0] if self.window else None

    def _stall_structure(self, head):
        return "window" if head.issue_at is not None else "iq"

    def _issue_gate(self):
        for entry in self.iq:
            if entry.issue_at is None:
                return entry
        return None

    def _step(self, cycle: int) -> None:
        """One cycle: SB retirement, commit, in-order head issue, the
        speculative window, dispatch.

        Store retirement runs inline; commit, issue and dispatch (the
        self-profiler's scopes) are called only when they can make
        progress, and work on hoisted locals.
        """
        counters = self.stats.counters
        sb = self.sb
        # -- store buffer (same as the InO baseline) ----------------------------
        if sb:
            fill = sb[0].fill_ready
            if (fill is not None and fill <= cycle
                    and self.fu.take_store_port()):
                sb.popleft()
                counters["sb_retires"] += 1.0
        window = self.window
        if window:
            head = window[0]
            done = head.done_at
            if (head.seq == self.next_commit and done is not None
                    and done <= cycle):
                self._commit(cycle)
        iq = self.iq
        if iq:
            self._issue(cycle)
        fq = self.fetch.queue
        if fq and fq[0].ready_at <= cycle:
            self._dispatch(cycle)

    def _issue(self, cycle: int) -> None:
        """In-order head issue, then the speculative sliding window,
        sharing the machine width."""
        counters = self.stats.counters
        iq = self.iq
        window = self.window
        cfg = self.cfg
        rob_size = cfg.rob_size
        poll = self.poll_ready
        take = self.fu.take
        execute = self._execute
        budget = cfg.width
        spec_pos = self.spec_pos
        # -- in-order head issue ----------------------------------------------
        issued = 0
        while budget > 0 and iq:
            entry = iq[0]
            if entry.issue_at is not None:
                # Already issued speculatively; just drain it.
                iq.popleft()
                if spec_pos > 1:
                    spec_pos -= 1
                continue
            if entry.n_pending and (not poll or not entry.ready(cycle)):
                break
            if len(window) >= rob_size:
                break
            if not take(entry.inst.op):
                break
            iq.popleft()
            if spec_pos > 1:
                spec_pos -= 1
            execute(entry, cycle)
            issued += 1
            budget -= 1
        if issued:
            counters["issued_head"] += issued
        # -- speculative sliding window ---------------------------------------
        n_iq = len(iq)
        if n_iq > 1:
            if spec_pos > n_iq - 1:
                spec_pos = n_iq - 1
            mem_ok = cfg.specino_mem
            issued = 0
            end = spec_pos + cfg.specino_ws
            for index in range(spec_pos, end if end < n_iq else n_iq):
                if budget <= 0:
                    break
                entry = iq[index]
                if entry.issue_at is not None:
                    continue
                inst = entry.inst
                if inst.is_mem and not mem_ok:
                    continue
                if entry.n_pending and (not poll or not entry.ready(cycle)):
                    continue
                if len(window) >= rob_size:
                    break
                if not take(inst.op):
                    continue
                execute(entry, cycle)
                issued += 1
                budget -= 1
            if issued:
                counters["issued_spec"] += issued
            else:
                # Slide toward younger entries, saturating at the tail.
                spec_pos += cfg.specino_so
                if spec_pos > n_iq - 1:
                    spec_pos = n_iq - 1
        self.spec_pos = spec_pos

    def _commit(self, cycle: int) -> None:
        window = self.window
        sb = self.sb
        sb_size = self.cfg.sq_sb_size
        width = self.cfg.width
        note_commit = self.note_commit
        committed = 0
        while window and committed < width:
            entry = window[0]
            done = entry.done_at
            if (entry.seq != self.next_commit or done is None
                    or done > cycle):
                break
            if entry.inst.is_store:
                if len(sb) >= sb_size:
                    break
                sb.append(entry)
                self.start_store_fill(entry, cycle)
            del window[0]
            self.next_commit = entry.seq + 1
            note_commit(entry, cycle)
            committed += 1

    # -- execution ---------------------------------------------------------------

    def _execute(self, entry: InflightInst, cycle: int) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        # Insert in program order so the commit scan stays a head check.
        window = self.window
        seq = entry.seq
        pos = len(window)
        while pos > 0 and window[pos - 1].seq > seq:
            pos -= 1
        window.insert(pos, entry)
        if inst.is_load:
            forward = self._forwarding_store(entry, pos)
            if forward is not None:
                entry.done_at = cycle + 2
                entry.forward_store = forward
            else:
                entry.done_at = cycle + self.load_latency(entry, cycle)
        elif inst.is_store:
            entry.done_at = cycle + 1
        else:
            entry.done_at = cycle + inst.latency
        if self.tracer is not None:
            self.trace_issue(entry, cycle)
        if inst.is_branch:
            self.resolve_branch_if_gating(entry)
        self._schedule_wakeup(entry)

    def _forwarding_store(self, load: InflightInst,
                          pos: int) -> Optional[InflightInst]:
        """Oracle disambiguation: forward from the youngest older store
        already resolved; unresolved older stores are ignored (ideal).

        ``pos`` is the load's index in the seq-ordered window, so the
        youngest older store is the first overlapping one walking back
        from there.  Buffered stores have committed, so they are older
        than anything in the window and only matter when it has none.
        """
        window = self.window
        inst = load.inst
        while pos > 0:
            pos -= 1
            store = window[pos]
            if store.inst.is_store and store.inst.overlaps(inst):
                return store
        for store in reversed(self.sb):
            if store.inst.overlaps(inst):
                return store
        return None

    def _dispatch(self, cycle: int) -> None:
        iq = self.iq
        make_entry = self.make_entry
        insts = self.fetch.pop_ready(
            cycle, min(self.cfg.iq_size - len(iq), self.cfg.width))
        for inst in insts:
            iq.append(make_entry(inst))
        if insts:
            self.stats.counters["dispatched"] += len(insts)

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        cand = []
        cfg = self.cfg
        sb = self.sb
        if sb:
            fill = sb[0].fill_ready
            if fill is not None and fill > cycle:
                cand.append(fill)
            else:
                return None  # SB head retires
        window = self.window
        if window:
            head = window[0]
            done = head.done_at
            if (head.seq == self.next_commit and done is not None
                    and done <= cycle):
                if not (head.inst.is_store and len(sb) >= cfg.sq_sb_size):
                    return None  # head would commit
                # full SB blocks commit silently (no counter)
        iq = self.iq
        n_iq = len(iq)
        if iq:
            poll = self.poll_ready
            head = iq[0]
            if head.issue_at is not None:
                return None  # drain pop (and spec_pos slide-back) mutates
            if ((not head.n_pending or (poll and head.ready(cycle)))
                    and len(window) < cfg.rob_size
                    and not self.fu.zero_capacity(head.inst.op)):
                return None  # head would issue
            if n_iq > 1:
                spec_pos = self.spec_pos
                last = n_iq - 1
                if spec_pos > last:
                    return None  # window-start clamp mutates spec_pos
                slid = spec_pos + cfg.specino_so
                if (slid if slid < last else last) != spec_pos:
                    # Unless an entry issues, the window slides; only a
                    # saturated window position is a stable (skippable)
                    # state.
                    return None
                mem_ok = cfg.specino_mem
                end = spec_pos + cfg.specino_ws
                for index in range(spec_pos, end if end < n_iq else n_iq):
                    entry = iq[index]
                    if entry.issue_at is not None:
                        continue
                    if entry.inst.is_mem and not mem_ok:
                        continue
                    if entry.n_pending and (not poll
                                            or not entry.ready(cycle)):
                        continue
                    if len(window) >= cfg.rob_size:
                        break
                    if self.fu.zero_capacity(entry.inst.op):
                        continue
                    return None  # a window entry would issue speculatively
        if not self._dispatch_quiescent(cycle, cand, cfg.iq_size - n_iq):
            return None
        if not self._fetch_quiescent(cycle, cand):
            return None
        return self._finish_hint(cand, {})
