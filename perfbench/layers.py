"""Which public functions each layer is timed through, and the per-layer
metrics computed from a traced run's spans.

Layers are named after the modules of ``src/repro``.  Every metric
listed in :data:`PER_LAYER` is reported by every workload; a metric whose
layer does no work on a workload reads 0, and one whose wrapped
functions are all absent from the program is flagged ``absent``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from perfbench.tracing import Span, Tracer, self_times

CORES = ("ino", "casino", "ooo", "specino", "lsc", "freeway")

#: Figure drivers of the sweep, by short name.
FIGURES = ("fig2", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b",
           "fig11")

#: Stats counters summed over simulations for the simulated rates.
_COUNTERS = ("cycles", "committed", "bp_correct", "bp_mispredicts",
             "l1i_accesses", "l1i_misses", "l1d_accesses", "l1d_misses",
             "l2_accesses", "l2_misses", "dram_accesses", "dram_row_hits")

#: Coarse calls: (target, span name).  Each records one span per call.
SPANS = (
    ("repro.harness.runner:Runner.run", "harness.run"),
    ("repro.harness.resilience:ResilientRunner.run", "harness.run"),
    ("repro.workloads.generator:SyntheticWorkload.generate",
     "workloads.generate"),
    ("repro.engine.soatrace:TraceArrays.from_instructions", "engine.soa"),
    ("repro.power.accounting:CorePowerModel.energy", "power.energy"),
    ("repro.obs.critpath:critical_path", "obs.critpath"),
    ("repro.obs.critpath:edge_slack", "obs.critpath"),
    ("repro.obs.schedulediff:diff_schedules", "obs.diff"),
)

#: Hot calls: (target, leaf name).  Aggregated as count + self time.
#: The vector kernels bind ``Tage.predict_update``, ``MemoryHierarchy.
#: store`` and ``Cache.access`` at entry (so those calls are counted) but
#: inline L1 clean hits and fetch (so those are not).
LEAVES = (
    ("repro.frontend.tage:Tage.predict_update",
     "frontend.predict/Tage.predict_update"),
    ("repro.frontend.btb:Btb.lookup_update",
     "frontend.predict/Btb.lookup_update"),
    ("repro.frontend.fetch:FetchUnit.tick", "frontend.fetch/FetchUnit.tick"),
    ("repro.memory.hierarchy:MemoryHierarchy.load",
     "memory.access/MemoryHierarchy.load"),
    ("repro.memory.hierarchy:MemoryHierarchy.store",
     "memory.access/MemoryHierarchy.store"),
    ("repro.memory.hierarchy:MemoryHierarchy.ifetch",
     "memory.access/MemoryHierarchy.ifetch"),
    ("repro.memory.cache:Cache.access", "memory.access/Cache.access"),
    ("repro.obs.accounting:CycleAccounting.on_cycle",
     "obs.accounting/CycleAccounting.on_cycle"),
    ("repro.obs.accounting:CycleAccounting.on_idle_span",
     "obs.accounting/CycleAccounting.on_idle_span"),
)

CORE_RUN = "repro.engine.core_base:CoreModel.run"

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "workloads.generate_s": "s",
    "engine.soa_s": "s",
    "engine.ff_skip_frac": "ratio",
    "engine.vector_share": "ratio",
    **{f"cores.{core}.{metric}": unit for core in CORES
       for metric, unit in (("run_s", "s"), ("kips", "kinst/s"),
                            ("runs", "count"))},
    "cores.sim_cycles": "count",
    "cores.committed": "count",
    "frontend.predict_s": "s",
    "frontend.fetch_s": "s",
    "frontend.bp_mispredict_rate": "ratio",
    "frontend.l1i_miss_rate": "ratio",
    "memory.access_s": "s",
    "memory.l1d_miss_rate": "ratio",
    "memory.l2_miss_rate": "ratio",
    "memory.dram_accesses": "count",
    "memory.dram_row_hit_rate": "ratio",
    "power.energy_s": "s",
    "harness.self_s": "s",
    "harness.result_reuse": "ratio",
    **{f"experiments.{fig}_s": "s" for fig in FIGURES},
    "obs.accounting_s": "s",
    "obs.critpath_s": "s",
    "obs.diff_s": "s",
    "obs.schedule_entries": "count",
    "service.submit_rtt_p50_s": "s",
    "service.submit_rtt_p95_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.polls_per_job": "count",
    "service.busy_rejects": "count",
    "service.job_run_p50_s": "s",
    "service.worker_sim_s": "s",
    "service.dispatch_overhead_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.trace_hit_ratio": "ratio",
    "service.journal_appends": "count",
    "service.journal_fsyncs": "count",
    "trace.overhead_s": "s",
}


def _core_span_name(core, *args, **kwargs) -> str:
    return f"cores.{getattr(core.cfg, 'kind', 'unknown')}.run"


def _after_core_run(span: Span, stats, args, kwargs) -> None:
    core, trace = args[0], (args[1] if len(args) > 1 else kwargs["trace"])
    counters = getattr(stats, "counters", {})
    schedule = getattr(core, "schedule", None)
    span.attrs.update(
        instrs=len(trace),
        tier=getattr(core, "engine_tier_used", None),
        ff_skipped=getattr(core, "ff_skipped_cycles", None),
        total_cycles=getattr(core, "cycle", -1) + 1,
        schedule_entries=len(schedule) if schedule is not None else 0,
        counters={name: counters.get(name, 0) for name in _COUNTERS})


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (before any core is built)."""
    tracer.wrap(CORE_RUN, _core_span_name, after=_after_core_run,
                new_run=True)
    for target, name in SPANS:
        tracer.wrap(target, name)
    for target, name in LEAVES:
        tracer.wrap(target, name, leaf=True)


#: Per-layer metric -> the span/leaf name (or CoreModel.run) feeding it.
_SOURCE = {
    "workloads.generate_s": "workloads.generate",
    "engine.soa_s": "engine.soa",
    "power.energy_s": "power.energy",
    "harness.self_s": "harness.run",
    "harness.result_reuse": "harness.run",
    "obs.critpath_s": "obs.critpath",
    "obs.diff_s": "obs.diff",
    "obs.accounting_s": "obs.accounting",
    "frontend.predict_s": "frontend.predict",
    "frontend.fetch_s": "frontend.fetch",
    "memory.access_s": "memory.access",
    **{name: "cores" for name in PER_LAYER if name.startswith(
        ("cores.", "engine.ff", "engine.vector", "frontend.bp",
         "frontend.l1i", "memory.l", "memory.dram", "obs.schedule"))},
}


def absent_metrics(absent: Sequence[str]) -> List[str]:
    """Per-layer metrics all of whose wrapped functions are absent."""
    targets: Dict[str, List[str]] = {"cores": [CORE_RUN]}
    for target, name in SPANS + LEAVES:
        targets.setdefault(name.split("/")[0], []).append(target)
    dead = {source for source, ts in targets.items()
            if all(t in absent for t in ts)}
    return [metric for metric, source in _SOURCE.items() if source in dead]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def leaf_totals(spans: Sequence[Span], orphans: Optional[dict] = None
                ) -> Dict[str, list]:
    """leaf name -> [calls, self seconds] over every span."""
    totals: Dict[str, list] = {}
    for bucket in [span.leaves for span in spans] + [orphans or {}]:
        for name, (calls, own) in bucket.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
    return totals


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the in-process layers from recorded spans."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
    leaves = leaf_totals(spans, tracer.orphan_leaves)
    leaf_s: Dict[str, float] = {}
    for name, (_, seconds) in leaves.items():
        prefix = name.split("/")[0]
        leaf_s[prefix] = leaf_s.get(prefix, 0.0) + seconds

    out: Dict[str, float] = {
        "workloads.generate_s": by_name.get("workloads.generate", 0.0),
        "engine.soa_s": by_name.get("engine.soa", 0.0),
        "power.energy_s": by_name.get("power.energy", 0.0),
        "harness.self_s": by_name.get("harness.run", 0.0),
        "obs.critpath_s": by_name.get("obs.critpath", 0.0),
        "obs.diff_s": by_name.get("obs.diff", 0.0),
        "obs.accounting_s": leaf_s.get("obs.accounting", 0.0),
        "frontend.predict_s": leaf_s.get("frontend.predict", 0.0),
        "frontend.fetch_s": leaf_s.get("frontend.fetch", 0.0),
        "memory.access_s": leaf_s.get("memory.access", 0.0),
    }
    # A figure's own code is glue around Runner.run, so its metric is
    # the figure's whole wall (inclusive); the layer table keeps self time.
    for fig in FIGURES:
        out[f"experiments.{fig}_s"] = sum(
            s.duration for s in spans if s.name == f"experiments.{fig}")

    runs = [s for s in spans if s.name.startswith("cores.")]
    counters = {name: 0.0 for name in _COUNTERS}
    for span in runs:
        for name, value in span.attrs.get("counters", {}).items():
            counters[name] += value
    for core in CORES:
        mine = [s for s in runs if s.name == f"cores.{core}.run"]
        out[f"cores.{core}.run_s"] = sum(own[s.id] for s in mine)
        out[f"cores.{core}.runs"] = float(len(mine))
        out[f"cores.{core}.kips"] = _ratio(
            sum(s.attrs.get("instrs", 0) for s in mine) / 1e3,
            sum(s.duration for s in mine))
    out["cores.sim_cycles"] = counters["cycles"]
    out["cores.committed"] = counters["committed"]
    out["engine.ff_skip_frac"] = _ratio(
        sum(s.attrs.get("ff_skipped") or 0 for s in runs),
        sum(s.attrs.get("total_cycles", 0) for s in runs))
    out["engine.vector_share"] = _ratio(
        sum(1 for s in runs if s.attrs.get("tier") == "vector"), len(runs))
    out["obs.schedule_entries"] = float(
        sum(s.attrs.get("schedule_entries", 0) for s in runs))
    out["frontend.bp_mispredict_rate"] = _ratio(
        counters["bp_mispredicts"],
        counters["bp_mispredicts"] + counters["bp_correct"])
    out["frontend.l1i_miss_rate"] = _ratio(counters["l1i_misses"],
                                           counters["l1i_accesses"])
    out["memory.l1d_miss_rate"] = _ratio(counters["l1d_misses"],
                                         counters["l1d_accesses"])
    out["memory.l2_miss_rate"] = _ratio(counters["l2_misses"],
                                        counters["l2_accesses"])
    out["memory.dram_accesses"] = counters["dram_accesses"]
    out["memory.dram_row_hit_rate"] = _ratio(counters["dram_row_hits"],
                                             counters["dram_accesses"])
    # Runner.run calls: only outermost harness spans (ResilientRunner.run
    # delegates to Runner.run, which would otherwise count twice).
    harness_ids = {s.id for s in spans if s.name == "harness.run"}
    outer = sum(1 for s in spans
                if s.id in harness_ids and s.parent not in harness_ids)
    out["harness.result_reuse"] = (1.0 - len(runs) / outer) if outer else 0.0
    return out


def coverage(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer (span name prefix, leaves included).

    The ``bench`` layer is the part of each timed pass that no layer
    span covers.  With concurrent clients (service-dse) spans overlap,
    so layer totals can exceed the wall.
    """
    own = self_times(tracer.spans)
    layers: Dict[str, float] = {}
    for span in tracer.spans:
        layer = span.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own[span.id]
    for name, (_, seconds) in leaf_totals(tracer.spans,
                                          tracer.orphan_leaves).items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers
