"""Repo benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-quick --seed 0 --seconds 35 --trace 0

Workloads (see perfbench/WORKLOADS.md for why each was chosen):

* ``sweep-quick``  all eight figure drivers on the 8-app quick suite;
* ``explain-cpi``  ``repro explain --vs`` for each quick app;
* ``service-dse``  a closed-loop design-space study over ``repro serve``.

``--seed`` offsets every workload profile seed (0 = the suite's own).
With ``--trace 0`` the run prints every end-to-end metric with its unit
and sample count; with ``--trace 1`` it prints every per-layer metric,
the tracing overhead and where the traced wall time went, and writes the
spans to ``.perfbench/``.  Correctness checks run either way; a failed
check marks the run failed.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Import the benchmark as the ``perfbench`` package, never its modules
# as top-level names from the script directory.
sys.path[:] = [str(ROOT)] + [p for p in sys.path
                             if Path(p or ".").resolve() != ROOT / "perfbench"]

from perfbench import common, layers, stats  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

#: name -> unit of the end-to-end metrics BENCHMARK.json gates, in the
#: JSON line of an untraced run.  The latency percentiles and the rest of
#: the report are printed only: on the in-process workloads one figure
#: or app sets each percentile, and across seeds p50 spread up to 0.16
#: and p95 up to 0.24, wider than a gate could resolve.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(result) -> dict:
    """Every end-to-end metric, gated or printed: name -> (value, unit, n)."""
    latencies = result.latencies
    n = len(latencies)
    out = {
        "setup_s": (stats.median(result.setup_samples), "s",
                    len(result.setup_samples)),
        "wall_s": (stats.median(result.walls), "s", len(result.walls)),
        "jobs_per_s": (n / sum(result.walls), "1/s", n),
        "job_latency_p50_s": (stats.percentile(latencies, 50), "s", n),
        "job_latency_p95_s": (stats.percentile(latencies, 95), "s", n),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
        "wall_host_s": (stats.median(result.raw_walls), "s",
                        len(result.raw_walls)),
    }
    tail = stats.tail_percentile(n)
    if tail is not None:
        out[f"job_latency_p{tail:g}_s (tail rule)"] = (
            stats.percentile(latencies, tail), "s", n)
    return out


def report_end_to_end(result, values: dict, counts: dict) -> None:
    rows = [(name, _fmt(value), unit, n)
            for name, (value, unit, n) in values.items()]
    rows.append(("failed_frac", _fmt(counts["failed_frac"]), "ratio",
                 counts["attempted"]))
    if result.latency_limit_s is not None:
        jobs = stats.failure_counts(result.outcomes, result.latency_limit_s)
        rows.append((f"jobs_over_{result.latency_limit_s:g}s_frac",
                     _fmt(jobs["over_limit"] / max(jobs["attempted"], 1)),
                     "ratio", jobs["attempted"]))
    for name, (value, unit, count) in result.extra.items():
        rows.append((name, _fmt(value), unit, count))
    print("end-to-end metrics (times in reference seconds, see "
          "perfbench/WORKLOADS.md; wall_host_s is unscaled; fig6_err_pts "
          "is simulated):")
    _table(("metric", "value", "unit", "n"), rows)


def report_layers(result, tracer, values: dict, absent: list) -> None:
    leaves = layers.leaf_totals(tracer.spans, tracer.orphan_leaves)
    calls = {}
    for name, (count, _) in leaves.items():
        calls.setdefault(name.split("/")[0] + "_s", []).append(
            f"{name.split('/')[1]}={count}")
    rows = [(name, "absent" if name in absent else _fmt(values[name]), unit,
             " ".join(calls.get(name, ())))
            for name, unit in layers.PER_LAYER.items()]
    print("per-layer metrics (traced run; call counts beside leaf times):")
    _table(("metric", "value", "unit", "calls"), rows)
    traced = sum(s.duration for s in tracer.spans if s.name == "bench.pass")
    print(f"tracing overhead: {_fmt(values['trace.overhead_s'])} reference s "
          f"per pass (traced {_fmt(stats.median(result.traced_walls))} vs "
          f"untraced {_fmt(stats.median(result.walls))})")
    print(f"traced wall {_fmt(traced)} host s over "
          f"{len(result.traced_walls)} pass(es); self time by layer "
          "(host s):")
    shares = layers.coverage(tracer)
    _table(("layer", "self_s", "share"),
           [(name, _fmt(sec), f"{100 * sec / traced:.1f}%")
            for name, sec in sorted(shares.items(), key=lambda kv: -kv[1])])
    if tracer.absent:
        print("absent (not wrapped): " + ", ".join(tracer.absent))


def _table(headers, rows) -> None:
    widths = [max(len(str(row[i])) for row in [headers, *rows])
              for i in range(len(headers))]
    for row in [headers, *rows]:
        print("  " + "  ".join(str(cell).ljust(width)
                               for cell, width in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-quick", "explain-cpi", "service-dse"])
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every profile seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long to keep repeating timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from perfbench.inproc import explain_cpi, sweep_quick
    from perfbench.service import service_dse

    workload = {"sweep-quick": sweep_quick, "explain-cpi": explain_cpi,
                "service-dse": service_dse}[args.workload]
    tracer = None
    if args.trace:
        # Service spans merge server-side event timestamps (wall clock).
        tracer = Tracer(clock=time.time if args.workload == "service-dse"
                        else time.perf_counter)
    result = workload(args.seed, args.seconds, tracer)

    # Operations are the jobs plus the correctness checks.
    counts = stats.failure_counts(
        result.outcomes + [{"ok": ok} for _, ok, _ in result.checks])
    attempted, failed = counts["attempted"], counts["failed"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(result.walls)} untraced"
          + (f" + {len(result.traced_walls)} traced" if tracer else ""))
    if tracer is None:
        values = end_to_end(result)
        report_end_to_end(result, values, counts)
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = {name: 0.0 for name in layers.PER_LAYER}
        values.update(layers.layer_metrics(tracer))
        values.update(result.layer_values)
        values["trace.overhead_s"] = (stats.median(result.traced_walls)
                                      - stats.median(result.walls))
        absent = layers.absent_metrics(tracer.absent)
        report_layers(result, tracer, values, absent)
        common.WORK.mkdir(exist_ok=True)
        spans_path = common.WORK / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    print(f"sim_digest {result.sim_digest}")
    print("checks:")
    for name, ok, detail in result.checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail and not ok else ""))
    for note in result.notes:
        print(f"note: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
