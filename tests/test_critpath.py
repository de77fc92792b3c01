"""Critical-path analysis and schedule diffing (repro.obs.critpath,
repro.obs.schedulediff).

The structural contract: the backward walk sweeps time continuously, so
the per-edge-type breakdown sums *exactly* to the path length on any
schedule, and the diff names specific instructions (seq, opcode, pc)
rather than aggregate counters.
"""

import sys
import threading
from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.params import (
    make_casino_config,
    make_ino_config,
    make_ooo_config,
)
from repro.cores import build_core
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.obs import critpath
from repro.obs.critpath import EDGE_TYPES, PathNode, build_graph, \
    critical_path, edge_slack
from repro.obs.schedulediff import diff_schedules, format_diff_report
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.kernels import kernel_trace
from repro.workloads.suite import SUITE
from tests.util import div, load, serial_chain, store, with_pcs


def _schedule(make_cfg, trace, **kwargs):
    core = build_core(make_cfg())
    core.run(trace, record_schedule=True, warm_icache=True, **kwargs)
    return core.schedule


def _app_trace(app, n=2_000):
    return SyntheticWorkload(SUITE[app]).generate(n)


class TestCriticalPath:
    @pytest.mark.parametrize("make_cfg", [make_ino_config,
                                          make_casino_config,
                                          make_ooo_config],
                             ids=["ino", "casino", "ooo"])
    @pytest.mark.parametrize("source", ["mcf", "pointer_chase"])
    def test_breakdown_sums_to_length(self, make_cfg, source):
        if source == "pointer_chase":
            trace = kernel_trace("pointer_chase", nodes=64, hops=512)
        else:
            trace = _app_trace(source)
        cp = critical_path(_schedule(make_cfg, trace))
        assert set(cp["breakdown"]) == set(EDGE_TYPES)
        assert sum(cp["breakdown"].values()) == cp["length"] > 0
        assert cp["path"], "path must name instructions"

    def test_path_names_instructions(self):
        cp = critical_path(_schedule(make_ino_config, _app_trace("mcf")))
        step = cp["path"][-1]
        assert step["label"].startswith("#")
        assert "pc=0x" in step["label"]
        assert step["via"] in EDGE_TYPES + ("data",)

    def test_serial_chain_is_all_execute_and_data(self):
        """A pure dependence chain: the path is the chain itself and no
        cycles are attributed to memory."""
        cp = critical_path(_schedule(make_ino_config,
                                     with_pcs(serial_chain(64))))
        assert cp["breakdown"]["memory"] == 0
        assert cp["breakdown"]["execute"] >= 64

    def test_long_latency_chain_dominated_by_execute(self):
        chain = [div(1)] + [div(1, (1,)) for _ in range(15)]
        cp = critical_path(_schedule(make_ino_config, with_pcs(chain)))
        # 16 dependent 12-cycle divides: execute dominates the length.
        assert cp["breakdown"]["execute"] >= 16 * 12
        assert cp["breakdown"]["execute"] >= 0.8 * cp["length"]

    def test_store_load_memory_edge(self):
        """A load forwarding from an older store must bind through the
        memory edge, not appear spuriously independent."""
        insts = with_pcs([div(1), store(0, 1, 0x100), load(2, 0, 0x100),
                          div(3, (2,))])
        nodes = build_graph(_schedule(make_ino_config, insts))
        by_seq = {n.seq: n for n in nodes}
        assert by_seq[2].mem_producer is by_seq[1]

    def test_empty_schedule(self):
        cp = critical_path([])
        assert cp["length"] == 0 and cp["path"] == []


class TestEdgeSlack:
    def test_inorder_pays_more_ordering_than_ooo(self):
        trace = _app_trace("mcf")
        ino = edge_slack(_schedule(make_ino_config, trace))
        ooo = edge_slack(_schedule(make_ooo_config, trace))
        assert ino["siq_order"] > ooo["siq_order"]

    def test_totals_are_nonnegative(self):
        slack = edge_slack(_schedule(make_casino_config, _app_trace("mcf")))
        assert all(v >= 0 for v in slack.values())


class TestScheduleDiff:
    def test_diff_against_self_is_zero(self):
        sched = _schedule(make_casino_config, _app_trace("hmmer"))
        diff = diff_schedules(sched, sched, name_a="x", name_b="y")
        assert diff["total_delta"] == 0
        assert diff["fell_behind"] == [] and diff["caught_up"] == []

    def test_casino_vs_ooo_names_instructions(self):
        trace = _app_trace("mcf")
        diff = diff_schedules(_schedule(make_casino_config, trace),
                              _schedule(make_ooo_config, trace),
                              name_a="casino", name_b="ooo")
        assert diff["instructions"] > 0
        # CASINO holds instructions longer than OoO overall on mcf...
        assert diff["total_delta"] > 0
        # ...and the report names the specific instructions involved.
        worst = diff["fell_behind"][0]
        assert worst["delta"] > 0
        assert isinstance(worst["seq"], int) and worst["op"]
        report = format_diff_report(diff)
        assert "casino fell behind ooo" in report
        assert f"#{worst['seq']}" in report
        assert "by opcode" in report

    def test_alignment_uses_seq_intersection(self):
        trace = _app_trace("hmmer")
        full = _schedule(make_ino_config, trace)
        half = full[: len(full) // 2]
        diff = diff_schedules(full, half)
        assert diff["instructions"] == len(
            {r[0] for r in half if r[2] is not None})


# -- the byte-indexed store map against the old reverse scan --------------

def _reference_graph(schedule, hit_latency):
    """``build_graph`` as it was with a reverse ``overlaps`` scan over
    every older store per load: the oracle for the byte index."""
    nodes = [PathNode(*row) for row in schedule
             if row[2] is not None and row[3] is not None]
    last_writer, last_stores, commits = {}, [], []
    prefix_issue = None
    for i, node in enumerate(nodes):
        inst = node.inst
        node.producers = [last_writer[src] for src in inst.srcs
                          if src in last_writer]
        if inst.is_load:
            for older in reversed(last_stores):
                if older.inst.overlaps(inst):
                    node.mem_producer = older
                    break
        ready, binding = 0, None
        for producer in node.producers:
            if producer.done_at > ready:
                ready, binding = producer.done_at, producer
        if (node.mem_producer is not None
                and node.issue_at >= node.mem_producer.done_at > ready):
            ready, binding = node.mem_producer.done_at, node.mem_producer
        node.data_ready, node.binding_producer = ready, binding
        node.ready = max(ready, node.dispatch_at)
        j = bisect_right(commits, node.dispatch_at)
        if 0 < j <= i:
            node.window_pred = nodes[j - 1]
        if prefix_issue is not None:
            node.gate, node.gate_node = prefix_issue.issue_at, prefix_issue
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
        if inst.is_store:
            last_stores.append(node)
        if prefix_issue is None or node.issue_at > prefix_issue.issue_at:
            prefix_issue = node
        commits.append(node.commit_at)
    return nodes


_MEM_OPS = (OpClass.LOAD, OpClass.LOAD_FP, OpClass.STORE, OpClass.STORE_FP)


@st.composite
def _schedules(draw):
    """Recorded-schedule rows over a few registers and a 24-byte window
    of addresses: unaligned, partially overlapping accesses of 1/2/4/8
    bytes, accesses with no address, stores younger than the loads they
    overlap, repeated stores to one byte and unscheduled rows."""
    rows, commit = [], 0
    for seq in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(_MEM_OPS * 3 + (OpClass.INT_ALU,
                                                  OpClass.INT_DIV)))
        inst = DynInst(
            pc=0x1000 + 4 * seq, op=op, seq=seq,
            srcs=tuple(draw(st.lists(st.integers(0, 5), max_size=2))),
            dst=None if op in _MEM_OPS[2:] else draw(st.integers(0, 5)),
            mem_addr=(draw(st.one_of(st.none(), st.integers(0, 24)))
                      if op in _MEM_OPS else None),
            mem_size=draw(st.sampled_from((1, 2, 4, 8))))
        dispatch = draw(st.integers(0, 30))
        issue = dispatch + draw(st.integers(0, 12))
        done = issue + draw(st.integers(0, 20))
        commit = max(commit, done) + draw(st.integers(0, 3))
        if draw(st.integers(0, 9)) == 0:
            issue = done = None
        rows.append((seq, inst, issue, done, commit, False, dispatch))
    return rows


def _store_row(seq, addr, size, issue):
    return (seq, DynInst(pc=4 * seq, op=OpClass.STORE, srcs=(1,),
                         mem_addr=addr, mem_size=size, seq=seq),
            issue, issue + 1, issue + 2, False, 0)


def _load_row(seq, addr, size, issue):
    return (seq, DynInst(pc=4 * seq, op=OpClass.LOAD, dst=2, mem_addr=addr,
                         mem_size=size, seq=seq),
            issue, issue + 9, issue + 10, False, 0)


_NODE_LINKS = ("mem_producer", "binding_producer", "window_pred",
               "gate_node")
_NODE_FIELDS = ("data_ready", "ready", "gate", "order_wait",
                "contention_wait", "exec_cycles", "mem_cycles")


class TestStoreIndex:
    @given(schedule=_schedules(), hit_latency=st.integers(1, 6))
    @example(schedule=[                  # several stores to one byte, a
        _store_row(0, 8, 8, 1),          # partial overlap and a store
        _store_row(1, 12, 2, 2),         # younger than the load
        _store_row(2, 3, 1, 3),
        _store_row(3, None, 8, 4),
        _load_row(4, 6, 4, 5),
        _load_row(5, None, 8, 6),
        _store_row(6, 6, 4, 7),
        _load_row(7, 13, 1, 8)], hit_latency=4)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reverse_overlap_scan(self, schedule, hit_latency):
        got = build_graph(schedule, hit_latency)
        want = _reference_graph(schedule, hit_latency)
        assert [n.seq for n in got] == [n.seq for n in want]

        def seq_of(node):
            return None if node is None else node.seq

        for g, w in zip(got, want):
            assert [p.seq for p in g.producers] == \
                [p.seq for p in w.producers]
            for link in _NODE_LINKS:
                assert seq_of(getattr(g, link)) == \
                    seq_of(getattr(w, link)), (g.seq, link)
            for field in _NODE_FIELDS:
                assert getattr(g, field) == getattr(w, field), (g.seq, field)

    def test_youngest_overlapping_store_wins(self):
        nodes = build_graph([_store_row(0, 8, 8, 1), _store_row(1, 12, 2, 2),
                             _store_row(2, 3, 1, 3), _load_row(3, 6, 4, 5),
                             _load_row(4, 13, 1, 6), _load_row(5, None, 8, 7),
                             _load_row(6, 0, 3, 8)])
        assert [n.mem_producer.seq if n.mem_producer else None
                for n in nodes[3:]] == [0, 1, None, None]


# -- one graph per schedule, shared by the three analyses -----------------

@pytest.fixture
def builds(monkeypatch):
    """Start from an empty graph cache and count every graph built."""
    monkeypatch.setattr(critpath, "_graphs", [])
    built = []
    real = critpath.build_graph

    def counting(schedule, hit_latency=critpath.DEFAULT_HIT_LATENCY):
        assert len(critpath._graphs) < critpath._GRAPH_CACHE_SIZE
        built.append((schedule, hit_latency))
        return real(schedule, hit_latency)

    monkeypatch.setattr(critpath, "build_graph", counting)
    return built


class TestGraphCache:
    def test_explain_pair_builds_each_graph_once(self, builds):
        trace = _app_trace("mcf")
        casino = _schedule(make_casino_config, trace)
        ooo = _schedule(make_ooo_config, trace)
        for sched in (casino, ooo):
            critical_path(sched)
            edge_slack(sched)
        diff_schedules(casino, ooo)
        assert len(builds) == 2
        assert builds[0][0] is casino and builds[1][0] is ooo

    def test_rerun_core_gets_fresh_graph(self, builds):
        trace = _app_trace("hmmer")
        core = build_core(make_casino_config())
        core.run(trace, record_schedule=True, warm_icache=True)
        first = core.schedule
        cp = critical_path(first)
        core = build_core(make_casino_config())
        core.run(trace, record_schedule=True, warm_icache=True)
        assert core.schedule is not first
        assert critical_path(core.schedule) == cp
        assert len(builds) == 2 and builds[1][0] is core.schedule

    def test_other_hit_latency_is_not_served_from_cache(self, builds):
        sched = _schedule(make_ino_config, _app_trace("mcf"))
        slack4 = edge_slack(sched, hit_latency=4)
        slack1 = edge_slack(sched, hit_latency=1)
        assert [h for _, h in builds] == [4, 1]
        assert slack1["memory"] > slack4["memory"]
        direct = build_graph(sched, 1)
        assert slack1["memory"] == sum(n.mem_cycles for n in direct)
        assert edge_slack(sched, hit_latency=4) == slack4
        assert len(builds) == 2

    def test_appended_schedule_is_rebuilt(self, builds):
        sched = _schedule(make_ino_config, _app_trace("hmmer"))
        half = sched[: len(sched) // 2]
        short = critical_path(half)
        half.extend(sched[len(half):])
        assert critical_path(half) == critical_path(sched)
        assert critical_path(half) != short
        assert len(builds) == 3

    def test_diff_against_self_builds_once(self, builds):
        sched = _schedule(make_casino_config, _app_trace("hmmer"))
        diff = diff_schedules(sched, sched)
        assert diff["total_delta"] == 0 and diff["instructions"] > 0
        assert len(builds) == 1

    def test_cache_holds_at_most_two_schedules(self, builds):
        trace = _app_trace("hmmer", n=500)
        seen = []
        for _ in range(5):
            sched = _schedule(make_ino_config, trace)
            seen.append(sched)
            critical_path(sched)
            edge_slack(sched)
            assert len(critpath._graphs) <= critpath._GRAPH_CACHE_SIZE
        assert len(critpath._graphs) == 2
        assert all(entry[0] is s
                   for entry, s in zip(critpath._graphs, seen[-2:]))
        assert len(builds) == 5

    def test_concurrent_callers_get_their_own_graph(self, builds):
        """Threads analysing different schedules through the one shared
        cache, under a short switch interval: every result matches its
        own schedule and the size bound holds."""
        trace = _app_trace("hmmer", n=300)
        scheds = [_schedule(make, trace) for make in (
            make_ino_config, make_casino_config, make_ooo_config)]
        want = [edge_slack(s) for s in scheds]
        errors = []

        def worker(k):
            try:
                for i in range(30):
                    j = (k + i) % len(scheds)
                    if edge_slack(scheds[j]) != want[j]:
                        errors.append((k, i, j))
                    if len(critpath._graphs) > critpath._GRAPH_CACHE_SIZE:
                        errors.append("cache over size")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
