"""Critical-path analysis over a recorded schedule.

Post-mortem companion to the live CPI stack
(:mod:`repro.obs.accounting`): given the per-instruction schedule a core
records with ``run(..., record_schedule=True)`` — rows of ``(seq, inst,
issue_at, done_at, commit_at, from_siq, dispatch_at)`` in commit order —
rebuild the dependence/resource DAG and walk the chain of binding
constraints backward from the last-completing instruction.  The result
names the instructions *on* the critical path and attributes every cycle
of its length to one edge type:

``execute``
    FU latency of a path node (non-miss ops, and loads within the L1 hit
    latency).
``memory``
    The portion of a load's latency beyond the L1 hit latency (cache
    misses), plus waits bound by a store -> load memory dependence.
``data``
    Waits bound by a register producer finishing exactly when the
    consumer issues (back-to-back dependent issue; no scheduler could do
    better).
``siq_order``
    Waits caused by in-order issue: the node was ready but could not
    issue before an *older* instruction issued (head-of-queue / cascade
    ordering — the constraint CASINO's S-IQs relax).
``fu_contention``
    Residual waits past readiness and the ordering gate: issue-width or
    FU/port structural contention.
``window``
    Waits before *dispatch*: the node could not enter the machine until
    an older instruction committed and recycled its window slot (plus
    the commit-side wait of that older instruction).
``dispatch``
    Leading cycles before the first path node entered the machine
    (fetch/decode fill).

The same per-node classification, summed over *all* instructions instead
of only the path, gives the per-edge-type slack totals
(:func:`edge_slack`) used by ``repro explain``.

Cost: :func:`build_graph` is one pass over the schedule.  Register edges
come from a last-writer map and store -> load edges from a map of byte
address -> youngest store that wrote it, so neither rescans older
instructions.  :func:`critical_path`, :func:`edge_slack` and
:func:`repro.obs.schedulediff.diff_schedules` share one graph per
schedule through a two-entry cache keyed on the schedule object, its
length and the hit latency; a schedule is treated as immutable once
analysed (appending rows is noticed, editing rows in place is not).

Like every observability module here, this is strictly read-only and
core-agnostic: it sees only the recorded schedule, so it can analyse any
core model.  The ordering gate is detected from the schedule itself via
a prefix-max over issue cycles — OoO schedules, which issue around older
instructions, show (nearly) none of it, while strict in-order schedules
show it at every dependent head.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

#: Edge/cycle categories, in display order.
EDGE_TYPES = ("execute", "memory", "data", "siq_order", "fu_contention",
              "window", "dispatch")

#: Default L1D hit latency (cycles); pass ``core.hier.l1d.cfg.latency``
#: for configured runs.
DEFAULT_HIT_LATENCY = 4

_SEQ = attrgetter("seq")


class PathNode:
    """One scheduled instruction with its rebuilt constraints."""

    __slots__ = ("seq", "inst", "issue_at", "done_at", "commit_at",
                 "from_siq", "dispatch_at", "producers", "mem_producer",
                 "data_ready", "ready", "binding_producer", "gate",
                 "gate_node", "order_wait", "contention_wait",
                 "exec_cycles", "mem_cycles", "window_pred")

    def __init__(self, seq, inst, issue_at, done_at, commit_at, from_siq,
                 dispatch_at=None):
        self.seq = seq
        self.inst = inst
        self.issue_at = issue_at
        self.done_at = done_at
        self.commit_at = commit_at
        self.from_siq = from_siq
        self.dispatch_at = dispatch_at if dispatch_at is not None else 0
        self.producers: List["PathNode"] = []
        self.mem_producer: Optional["PathNode"] = None
        self.data_ready = 0
        self.ready = 0
        self.binding_producer: Optional["PathNode"] = None
        self.gate = 0
        self.gate_node: Optional["PathNode"] = None
        self.order_wait = 0
        self.contention_wait = 0
        self.exec_cycles = 0
        self.mem_cycles = 0
        self.window_pred: Optional["PathNode"] = None

    @property
    def label(self) -> str:
        return f"#{self.seq} {self.inst.op.name} pc=0x{self.inst.pc:x}"


def build_graph(schedule: Sequence[tuple],
                hit_latency: int = DEFAULT_HIT_LATENCY) -> List[PathNode]:
    """Rebuild the dependence DAG and classify every node's wait cycles.

    ``schedule`` is the list a core records (commit order == program
    order).  Returns nodes in program order with ``producers`` (register
    dataflow), ``mem_producer`` (youngest older overlapping store for
    loads), the binding constraint, and the per-category cycle split.
    Memory accesses must be at least one byte wide (``mem_size >= 1``;
    every trace producer emits 8); an access with ``mem_addr`` None gets
    no memory edge.  Not cached: the caller owns the returned nodes.
    """
    nodes = [PathNode(*row) for row in schedule
             if row[2] is not None and row[3] is not None]
    last_writer: Dict[int, PathNode] = {}
    store_at: Dict[int, PathNode] = {}        # byte -> youngest store to it
    prefix_issue: Optional[PathNode] = None   # older node with max issue_at
    commits: List[int] = []                   # nondecreasing (in-order commit)
    for i, node in enumerate(nodes):
        inst = node.inst
        for src in inst.srcs:
            writer = last_writer.get(src)
            if writer is not None:
                node.producers.append(writer)
        if inst.is_load and inst.mem_addr is not None:
            addr = inst.mem_addr
            stores = [store for store in map(
                store_at.get, range(addr, addr + inst.mem_size)) if store]
            if stores:
                node.mem_producer = max(stores, key=_SEQ)
        # Data/memory readiness: the latest producer completion.
        ready = 0
        binding = None
        for producer in node.producers:
            if producer.done_at > ready:
                ready = producer.done_at
                binding = producer
        # A store -> load edge only binds when it is causal: a forwarded
        # load may legally issue the cycle the store resolves (before the
        # store's completion timestamp), and then it is no constraint.
        if (node.mem_producer is not None
                and node.issue_at >= node.mem_producer.done_at > ready):
            ready = node.mem_producer.done_at
            binding = node.mem_producer
        node.data_ready = ready
        node.binding_producer = binding
        node.ready = max(ready, node.dispatch_at)
        # The window predecessor: the youngest older instruction whose
        # commit preceded this node's dispatch — on a full window, the
        # commit that recycled the slot this node dispatched into.
        j = bisect_right(commits, node.dispatch_at)
        if 0 < j <= i:
            node.window_pred = nodes[j - 1]
        # Ordering gate: on an in-order machine nothing issues before an
        # older instruction has issued; the prefix max of issue cycles is
        # that gate.  (OoO schedules routinely issue *under* the prefix
        # max, which classifies those waits as contention, not ordering.)
        if prefix_issue is not None:
            node.gate = prefix_issue.issue_at
            node.gate_node = prefix_issue
        gate = node.gate
        if gate > node.ready and node.issue_at >= gate:
            node.order_wait = gate - node.ready
            node.contention_wait = node.issue_at - gate
        else:
            node.contention_wait = max(0, node.issue_at - node.ready)
        total_exec = node.done_at - node.issue_at
        if inst.is_load and total_exec > hit_latency:
            node.mem_cycles = total_exec - hit_latency
            node.exec_cycles = hit_latency
        else:
            node.exec_cycles = total_exec
        if inst.dst is not None:
            last_writer[inst.dst] = node
        if inst.is_store and inst.mem_addr is not None:
            addr = inst.mem_addr
            for byte in range(addr, addr + inst.mem_size):
                store_at[byte] = node
        if prefix_issue is None or node.issue_at > prefix_issue.issue_at:
            prefix_issue = node
        commits.append(node.commit_at)
    return nodes


#: Graphs of the most recently analysed schedules, oldest first, as
#: ``(schedule, len(schedule), hit_latency, nodes)``.  Two entries hold
#: the pair ``repro explain --vs`` analyses; holding the schedule itself
#: keeps its ``id`` from being reused while the entry lives.
_GRAPH_CACHE_SIZE = 2
_graphs: List[tuple] = []
# Held across the build too: building is pure Python, so concurrent
# callers could not overlap it anyway, and the size bound stays exact.
_graphs_lock = threading.Lock()


def _graph(schedule: Sequence[tuple], hit_latency: int) -> List[PathNode]:
    """``build_graph(schedule, hit_latency)``, built once per schedule
    object and shared by the analyses; callers must not mutate it."""
    with _graphs_lock:
        for i, (cached, length, hit, nodes) in enumerate(_graphs):
            if (cached is schedule and length == len(schedule)
                    and hit == hit_latency):
                _graphs.append(_graphs.pop(i))
                return nodes
        # Evict before building, so at most _GRAPH_CACHE_SIZE graphs live.
        del _graphs[:1 - _GRAPH_CACHE_SIZE]
        nodes = build_graph(schedule, hit_latency)
        _graphs.append((schedule, len(schedule), hit_latency, nodes))
        return nodes


def critical_path(schedule: Sequence[tuple],
                  hit_latency: int = DEFAULT_HIT_LATENCY) -> dict:
    """The binding chain of the schedule, with a cycle breakdown.

    Walks backward from the last-completing instruction, at each node
    following the constraint that actually bound its issue: the ordering
    gate when the node waited head-blocked, the binding producer when
    data readiness dominated, the window-recycling commit when the node
    could not even dispatch, else frontend fill.  The walk sweeps a time
    pointer continuously from the path length down to cycle 0, so the
    breakdown sums exactly to ``length`` by construction.
    """
    nodes = _graph(schedule, hit_latency)
    if not nodes:
        return {"length": 0, "path": [],
                "breakdown": {t: 0 for t in EDGE_TYPES}}
    current = max(nodes, key=lambda n: (n.done_at, n.seq))
    length = current.done_at
    breakdown = {t: 0 for t in EDGE_TYPES}
    path: List[dict] = []
    t = length
    while True:
        # Arriving via a window edge, t is the commit cycle that freed
        # the successor's slot; the [done, commit) wait is window time.
        capped = min(current.done_at, t)
        breakdown["window"] += t - capped
        seg = capped - current.issue_at
        mem_part = min(seg, current.mem_cycles)
        breakdown["memory"] += mem_part
        breakdown["execute"] += seg - mem_part
        step = {
            "seq": current.seq,
            "label": current.label,
            "dispatch_at": current.dispatch_at,
            "issue_at": current.issue_at,
            "done_at": current.done_at,
            "exec": seg - mem_part,
            "memory": mem_part,
            "order_wait": current.order_wait,
            "contention_wait": current.contention_wait,
        }
        t = current.issue_at
        if current.order_wait > 0:
            # Segment [gate, issue): issue was gated on the older
            # instruction issuing.  The wait *before* the gate opened
            # belongs to the gate node's own history, which the walk
            # continues through (t jumps to its issue cycle).
            breakdown["siq_order"] += t - current.gate
            step["via"] = "siq_order"
            path.append(step)
            t = current.gate          # == current.gate_node.issue_at
            current = current.gate_node
            continue
        binding = current.binding_producer
        if (binding is not None
                and current.data_ready >= current.dispatch_at
                and current.data_ready > 0):
            breakdown["fu_contention"] += t - current.data_ready
            step["via"] = ("memory" if binding is current.mem_producer
                           else "data")
            path.append(step)
            t = current.data_ready    # == binding.done_at
            current = binding
            continue
        # Dispatch-bound: [dispatch, issue) is issue-side contention,
        # then hop to the commit that recycled the window slot.
        breakdown["fu_contention"] += t - current.dispatch_at
        t = current.dispatch_at
        pred = current.window_pred
        if pred is not None and pred.commit_at <= t:
            breakdown["window"] += t - pred.commit_at
            step["via"] = "window"
            path.append(step)
            t = pred.commit_at
            current = pred
            continue
        # Chain start: cycles before the first dispatch are frontend fill.
        breakdown["dispatch"] += t
        step["via"] = "dispatch"
        path.append(step)
        break
    path.reverse()
    return {"length": length, "path": path, "breakdown": breakdown}


def edge_slack(schedule: Sequence[tuple],
               hit_latency: int = DEFAULT_HIT_LATENCY) -> Dict[str, int]:
    """Whole-schedule wait totals by category (not just the path):
    how many issue-wait cycles every instruction spent on in-order
    ordering vs. FU contention, and how many execution cycles went to
    the memory system vs. plain FU latency."""
    totals = {t: 0 for t in EDGE_TYPES}
    for node in _graph(schedule, hit_latency):
        totals["execute"] += node.exec_cycles
        totals["memory"] += node.mem_cycles
        totals["siq_order"] += node.order_wait
        totals["fu_contention"] += node.contention_wait
    return totals
