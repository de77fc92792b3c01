"""Instruction-aligned diff of two cores' schedules on the same trace.

Both cores run the *same* dynamic trace, so their recorded schedules
(``run(..., record_schedule=True)``) commit the same instructions with
the same sequence numbers; aligning on ``seq`` compares, instruction by
instruction, *when* each core issued the same work.  The interesting
quantity is the **issue delay** — ``issue_at`` minus the cycle the
instruction's operands were ready on that core (recomputed from the
schedule's :func:`repro.obs.critpath.build_graph` graph, shared with the
critical-path analyses) — because it
isolates scheduling quality from dataflow: an instruction with a large
delay on core A and none on core B marks exactly where A's scheduler
fell behind.

:func:`diff_schedules` returns per-instruction deltas plus two ranked
lists: ``fell_behind`` (A delayed issue where B did not — on
``casino`` vs ``ooo``, the head-of-queue stalls the cascade failed to
hide) and ``caught_up`` (the reverse), each naming the specific
instruction (seq, opcode, pc) with both cores' issue/delay cycles, and a
per-opcode aggregation for the long tail.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.critpath import DEFAULT_HIT_LATENCY, _graph


def diff_schedules(sched_a: Sequence[tuple], sched_b: Sequence[tuple],
                   name_a: str = "A", name_b: str = "B",
                   top: int = 10,
                   hit_latency: int = DEFAULT_HIT_LATENCY) -> dict:
    """Compare two schedules of the same trace, instruction by
    instruction.

    Positive ``delta`` means core A held the instruction in its window
    longer than core B did (A fell behind); negative means A issued it
    closer to readiness.  Entries cover the intersection of committed
    sequence numbers (identical for two complete runs of one trace).
    """
    nodes_a = {n.seq: n for n in _graph(sched_a, hit_latency)}
    nodes_b = {n.seq: n for n in _graph(sched_b, hit_latency)}
    entries: List[dict] = []
    by_op: Dict[str, dict] = {}
    for seq in sorted(nodes_a.keys() & nodes_b.keys()):
        a, b = nodes_a[seq], nodes_b[seq]
        delay_a = a.issue_at - a.ready
        delay_b = b.issue_at - b.ready
        delta = delay_a - delay_b
        entries.append({
            "seq": seq,
            "op": a.inst.op.name,
            "pc": a.inst.pc,
            "issue_a": a.issue_at,
            "issue_b": b.issue_at,
            "delay_a": delay_a,
            "delay_b": delay_b,
            "delta": delta,
        })
        agg = by_op.setdefault(a.inst.op.name, {
            "count": 0, "delay_a": 0, "delay_b": 0, "delta": 0})
        agg["count"] += 1
        agg["delay_a"] += delay_a
        agg["delay_b"] += delay_b
        agg["delta"] += delta
    fell_behind = sorted((e for e in entries if e["delta"] > 0),
                         key=lambda e: (-e["delta"], e["seq"]))[:top]
    caught_up = sorted((e for e in entries if e["delta"] < 0),
                       key=lambda e: (e["delta"], e["seq"]))[:top]
    total_a = sum(e["delay_a"] for e in entries)
    total_b = sum(e["delay_b"] for e in entries)
    return {
        "core_a": name_a,
        "core_b": name_b,
        "instructions": len(entries),
        "total_delay_a": total_a,
        "total_delay_b": total_b,
        "total_delta": total_a - total_b,
        "fell_behind": fell_behind,
        "caught_up": caught_up,
        "by_op": by_op,
    }


def format_diff_report(diff: dict) -> str:
    """Human-readable ``where A caught up / fell behind`` report."""
    a, b = diff["core_a"], diff["core_b"]
    lines = [
        f"schedule diff: {a} vs {b} over {diff['instructions']} instructions",
        f"  issue-delay cycles: {a}={diff['total_delay_a']} "
        f"{b}={diff['total_delay_b']} (delta {diff['total_delta']:+d})",
    ]

    def block(title: str, rows: List[dict]) -> None:
        lines.append(f"  {title}:")
        if not rows:
            lines.append("    (none)")
            return
        for e in rows:
            lines.append(
                f"    #{e['seq']:<6d} {e['op']:<9s} pc=0x{e['pc']:x}  "
                f"delay {a}={e['delay_a']} {b}={e['delay_b']} "
                f"(delta {e['delta']:+d}; issue {e['issue_a']} vs "
                f"{e['issue_b']})")

    block(f"where {a} fell behind {b}", diff["fell_behind"])
    block(f"where {a} caught up on {b}", diff["caught_up"])
    worst = sorted(diff["by_op"].items(),
                   key=lambda kv: -abs(kv[1]["delta"]))[:6]
    lines.append("  by opcode (total issue-delay delta):")
    for op, agg in worst:
        lines.append(f"    {op:<9s} n={agg['count']:<6d} "
                     f"delta {agg['delta']:+d} "
                     f"({a}={agg['delay_a']} {b}={agg['delay_b']})")
    return "\n".join(lines)
