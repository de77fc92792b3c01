"""The in-process workloads: ``sweep-quick`` and ``explain-cpi``.

Both run serially in the benchmark process through public entry points
only, and draw their traces from the quick suite with every profile seed
offset by the benchmark seed.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from typing import List, Optional

from perfbench import common, stats
from perfbench.common import WorkloadResult
from perfbench.tracing import Tracer

#: Trace length of every sweep simulation (a quarter of it is warm-up).
SWEEP_INSTRS = 2_000
#: Trace length of every explain simulation (a quarter is warm-up).
EXPLAIN_INSTRS = 4_000

SWEEP_IMPORTS = ["repro.experiments.sweep", "repro.cores.casino.core",
                 "repro.cores.ooo", "repro.cores.lsc", "repro.cores.freeway",
                 "repro.cores.specino", "repro.cores.inorder",
                 "repro.engine.vectortier", "repro.engine.fastino",
                 "repro.engine.fastcasino"]
EXPLAIN_IMPORTS = ["repro.cores.casino.core", "repro.cores.ooo",
                   "repro.obs.accounting", "repro.obs.critpath",
                   "repro.obs.schedulediff", "repro.workloads.generator"]

SETUP_PROBES = 5


def seeded_profiles(seed: int) -> list:
    """The quick suite with every profile seed offset by ``seed``."""
    from repro.experiments.common import quick_profiles
    return [dataclasses.replace(p, seed=p.seed + seed)
            for p in quick_profiles()]


def _short(figure: str) -> str:
    """``"Figure 10a"`` -> ``"fig10a"``."""
    return "fig" + figure.split()[-1].lower()


# -- sweep-quick --------------------------------------------------------------

def sweep_quick(seed: int, seconds: float,
                tracer: Optional[Tracer]) -> WorkloadResult:
    result = WorkloadResult()
    result.setup_samples = common.setup_samples(
        lambda: common.import_probe(SWEEP_IMPORTS), SETUP_PROBES)
    from repro.experiments import fig6_ipc
    from repro.experiments.common import make_resilient_runner, make_runner
    from repro.experiments.sweep import default_jobs, run_sweep
    from repro.harness.resilience import SweepCheckpoint

    profiles = seeded_profiles(seed)
    common.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=common.WORK)
    digests: List[str] = []
    fig6_runs: List[dict] = []
    problems: List[str] = []

    timer = common.JobTimer()

    def run_pass(index: int, active: Optional[Tracer]) -> tuple:
        """One sweep.  Its time is the figure jobs' plus the harness
        gaps around them (runner set-up, result digests, checkpoint
        flushes), each gap scaled like the job after it and the last
        gap like the last job; the reference loops are left out."""
        latency = {}
        host_s = []
        gaps = []      # (host seconds, scale)
        mark = time.perf_counter()

        def timed(name, fn):
            def job(runner, profs):
                nonlocal mark
                gap = time.perf_counter() - mark
                span = (active.open(f"experiments.{_short(name)}",
                                    run=_short(name)) if active else None)
                try:
                    out, latency[name], host = timer.time(fn, runner, profs)
                    host_s.append(host)
                    return out
                finally:
                    gaps.append((gap, timer.scale))
                    if span is not None:
                        active.close(span)
                    mark = time.perf_counter()
            return job

        jobs = [(name, timed(name, fn)) for name, fn in default_jobs()]
        runner = make_resilient_runner(n_instrs=SWEEP_INSTRS,
                                       warmup=SWEEP_INSTRS // 4)
        ckpt = SweepCheckpoint(f"{workdir}/pass{index}.json")
        run_sweep(runner, profiles, ckpt, jobs=jobs, echo=lambda line: None)
        gaps.append((time.perf_counter() - mark, timer.scale))
        for name, _ in jobs:
            entry = ckpt.data.get(name)
            if entry is None:
                problems.append(f"{_short(name)} raised (pass {index})")
            elif entry["exclusions"] or entry["failures"]:
                problems.append(f"{_short(name)} excluded "
                                f"{entry['exclusions']} (pass {index})")
            result.job(entry is not None and not entry["exclusions"]
                       and not entry["failures"], latency.get(name))
        digests.append(common.digest(
            {name: entry["result"] for name, entry in ckpt.data.items()}))
        fig6 = ckpt.data.get("Figure 6")
        fig6_runs.append(fig6["result"] if fig6 else None)
        return (sum(latency.values()) + sum(g * k for g, k in gaps),
                sum(host_s) + sum(g for g, _ in gaps))

    try:
        common.timed_passes(run_pass, seconds, result, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.sim_digest = digests[0]
    result.check("every figure completes with no exclusions", not problems,
                 "; ".join(problems[:4]))
    result.check("figures identical on every pass", len(set(digests)) == 1,
                 f"{len(set(digests))} distinct digests")
    fig6 = fig6_runs[0]
    if fig6 is not None:
        geo = {core: fig6[core]["geomean"] for core in stats.PAPER_FIG6_PCT}
        result.extra["fig6_err_pts"] = (stats.fig6_err_pts(geo), "pts", 4)
        violations = stats.fig6_order_violations(fig6)
        result.notes.append(
            f"fig6 shape on seed {seed}: "
            + ("; ".join(violations) if violations else "holds")
            + "  [diagnostic; not gated]")
    # The gated shape check runs on the suite's own seeds, where the
    # model is calibrated: on other seeds the LSC/Freeway gap is within
    # trace-to-trace noise at this length (see perfbench/WORKLOADS.md).
    if seed == 0 and fig6 is not None:
        reference = fig6
    else:
        reference = fig6_ipc.run(
            make_runner(n_instrs=SWEEP_INSTRS, warmup=SWEEP_INSTRS // 4),
            seeded_profiles(0))
    violations = stats.fig6_order_violations(reference)
    result.check("fig6 shape on suite seeds: LSC < Freeway < CASINO < OoO, "
                 "CASINO > InO per app", not violations,
                 "; ".join(violations))
    return result


# -- explain-cpi --------------------------------------------------------------

def _explain_app(profile) -> dict:
    """``repro explain <app> --core casino --vs ooo`` through the library:
    CASINO and OoO on one trace with cycle accounting and a recorded
    schedule, then critical path, edge slack and the schedule diff."""
    from repro import build_core, make_casino_config, make_ooo_config
    from repro.obs import critpath, schedulediff
    from repro.obs.accounting import CycleAccounting
    from repro.obs.provenance import counter_digest
    from repro.workloads.generator import SyntheticWorkload

    trace = SyntheticWorkload(profile).generate(EXPLAIN_INSTRS)
    out = {"problems": [], "cores": {}}
    schedules = {}
    for make in (make_casino_config, make_ooo_config):
        core = build_core(make())
        acct = CycleAccounting()
        stats_ = core.run(trace, warmup=EXPLAIN_INSTRS // 4,
                          record_schedule=True, accounting=acct)
        hit = core.hier.l1d.cfg.latency
        report = acct.report()
        path = critpath.critical_path(core.schedule, hit_latency=hit)
        slack = critpath.edge_slack(core.schedule, hit_latency=hit)
        name = core.cfg.name
        schedules[name] = (core.schedule, hit)
        if report["identity_error"] or sum(
                report["components"].values()) != report["total_cycles"]:
            out["problems"].append(f"{name}: CPI components do not sum to "
                                   f"cycles ({report['identity_error']})")
        if path["length"] > acct.total_cycles:
            out["problems"].append(
                f"{name}: critical path {path['length']} > "
                f"{acct.total_cycles} simulated cycles")
        if sum(path["breakdown"].values()) != path["length"]:
            out["problems"].append(f"{name}: path breakdown does not sum "
                                   "to its length")
        out["cores"][name] = {"counters": counter_digest(stats_),
                              "components": report["components"],
                              "path": path["length"],
                              "breakdown": path["breakdown"],
                              "slack": slack}
    (sched_a, hit_a), (sched_b, _) = schedules.values()
    names = list(schedules)
    diff = schedulediff.diff_schedules(sched_a, sched_b, name_a=names[0],
                                       name_b=names[1], hit_latency=hit_a)
    if diff["instructions"] != len(trace):
        out["problems"].append(f"diff aligned {diff['instructions']} of "
                               f"{len(trace)} instructions")
    out["diff"] = {k: diff[k] for k in ("instructions", "total_delay_a",
                                        "total_delay_b", "total_delta")}
    return out


def explain_cpi(seed: int, seconds: float,
                tracer: Optional[Tracer]) -> WorkloadResult:
    result = WorkloadResult()
    result.setup_samples = common.setup_samples(
        lambda: common.import_probe(EXPLAIN_IMPORTS), SETUP_PROBES)
    profiles = seeded_profiles(seed)
    digests: List[str] = []
    problems: List[str] = []

    timer = common.JobTimer()

    def run_pass(index: int, active: Optional[Tracer]) -> tuple:
        outputs = {}
        wall = host_wall = 0.0
        for profile in profiles:
            span = (active.open("bench.explain", run=f"explain-{profile.name}")
                    if active else None)
            try:
                out, latency, host = timer.time(_explain_app, profile)
            finally:
                if span is not None:
                    active.close(span)
            wall += latency
            host_wall += host
            problems.extend(f"{profile.name}: {p}" for p in out["problems"])
            result.job(not out.pop("problems"), latency)
            outputs[profile.name] = out
        digests.append(common.digest(outputs))
        return wall, host_wall

    common.timed_passes(run_pass, seconds, result, tracer)
    result.sim_digest = digests[0]
    result.check("CPI identity, critical path <= cycles, full diff on "
                 "every app", not problems, "; ".join(problems[:4]))
    result.check("explain output identical on every pass",
                 len(set(digests)) == 1,
                 f"{len(set(digests))} distinct digests")
    return result
