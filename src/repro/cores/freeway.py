"""Freeway core (Kumar et al., HPCA 2019) — Section VI-A2 baseline.

Load Slice Core plus dependence-aware slice scheduling: slices that depend
on a load of an older slice are diverted into a *yielding* queue (Y-IQ), so
independent slices in the B-IQ are not blocked by inter-slice dependences.
Issue priority is B-IQ, then Y-IQ, then A-IQ, sharing the machine width.
Issue, dispatch and commit are the Load Slice Core's; this class supplies
the extra queue, its place in the issue order and the steering rule.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.cores.lsc import LoadSliceCore
from repro.engine.core_base import InflightInst


class FreewayCore(LoadSliceCore):
    """Freeway = LSC + Y-IQ."""

    kind = "freeway"

    def _reset(self) -> None:
        super()._reset()
        self.yiq: Deque[InflightInst] = deque()
        self._set_queues((self.biq, "issued_biq"), (self.yiq, "issued_yiq"),
                         (self.aiq, "issued_aiq"))

    def pipeline_empty(self) -> bool:
        return super().pipeline_empty() and not self.yiq

    def _debug_state(self) -> str:  # pragma: no cover
        return f"{super()._debug_state()} yiq={list(self.yiq)[:3]}"

    def _occupancy(self):
        occ = super()._occupancy()
        occ["yiq"] = (len(self.yiq), self.cfg.yiq_size)
        return occ

    def _stall_structure(self, head):
        """LSC's structures plus the yielding queue: a head stalled in the
        Y-IQ is an inter-slice dependence stall, worth its own label."""
        if head.issue_at is None and head.queue_tag == "Y":
            return "yiq"
        return super()._stall_structure(head)

    def _steer(self, inst):
        """Freeway steering (read-only): a slice instruction that depends
        on an outstanding older slice goes to the yielding queue."""
        target = super()._steer(inst)
        if target[2] == "B" and self._is_dependent_slice(inst):
            return self.yiq, self.cfg.yiq_size, "Y"
        return target

    def _is_dependent_slice(self, inst) -> bool:
        """A slice instruction whose value depends on an outstanding load of
        an older slice yields (it would stall the B-IQ head otherwise)."""
        for src in inst.srcs:
            writer = self.last_writer.get(src)
            if writer is None or writer.committed:
                continue
            if writer.inst.is_load and writer.done_at is None:
                return True
            if writer.queue_tag == "Y" and writer.issue_at is None:
                return True
        return False
