#!/usr/bin/env python
"""Host-side simulator benchmark: how fast does the model itself run?

Simulated results are deterministic, so the repo's correctness suite never
notices when a refactor makes the simulator 2x slower to *execute*.  This
harness times a fixed set of (core, app) simulations on the host:

* a warm-up iteration per pair (allocator/caches), then ``--repeats``
  timed iterations; the report carries the **median and IQR**;
* a pure-Python **calibration loop** timed alongside, so scores can be
  normalised (``median / calibration``) and compared across hosts of
  different speeds — the CI gate checks normalised scores, not seconds;
* a provenance manifest (git rev, python, platform, config hashes) so a
  checked-in baseline is attributable;
* a ``casino/mcf:acct`` leg: the vector tier with cycle accounting
  attached, interleaved with the plain run, reporting
  ``accounting_overhead`` (reported, not gated: it carries no
  normalised score, so ``--check`` skips it).

Run:    python scripts/bench.py [--quick] [--out BENCH_core.json]
Gate:   python scripts/bench.py --quick --check \
            --baseline BENCH_core.json --tolerance 0.25

``--check`` exits 1 when any pair's normalised median regresses more than
``--tolerance`` (fraction) over the baseline, printing the offenders.
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(1, str(_ROOT))  # tests.chaos drives the cluster leg

from repro.common.params import (  # noqa: E402
    make_casino_config,
    make_ino_config,
    make_ooo_config,
)
from repro.cores import build_core  # noqa: E402
from repro.engine.soatrace import TraceArrays  # noqa: E402
from repro.obs.accounting import CycleAccounting  # noqa: E402
from repro.obs.provenance import config_hash, git_rev  # noqa: E402
from repro.workloads.generator import SyntheticWorkload  # noqa: E402
from repro.workloads.suite import get_profile  # noqa: E402

_CORES = {"ino": make_ino_config, "casino": make_casino_config,
          "ooo": make_ooo_config}

#: (core, app) pairs spanning the cost spectrum: the cheap scoreboard
#: core, the cascaded-queue core, and the OoO core on a memory-bound and
#: a compute-bound app.
PAIRS = (("ino", "hmmer"), ("ino", "mcf"),
         ("casino", "hmmer"), ("casino", "mcf"),
         ("ooo", "hmmer"), ("ooo", "mcf"))

#: Pairs also timed with quiescence fast-forward disabled
#: (``<core>/<app>:noskip`` keys).  mcf is DRAM-bound, so these measure
#: what the event-driven skip layer buys; ``--check`` additionally
#: requires skip-on to beat skip-off here by ``--min-ff-speedup``.
NOSKIP_PAIRS = (("ino", "mcf"), ("casino", "mcf"))

#: Legs the cross-tier gate covers: both the DRAM-bound and the
#: compute-bound app on the kernelized cores, so a single-workload
#: regression in the vectorized tier cannot hide behind the other.
TIER_PAIRS = (("ino", "mcf"), ("casino", "mcf"),
              ("ino", "hmmer"), ("casino", "hmmer"))


def default_engine_tier() -> str:
    """The tier this process would auto-select for a kernelized core —
    what the manifest records, and what the cross-tier gate keys on."""
    from repro.engine.vectortier import select_kernel
    core = build_core(_CORES["ino"]())
    return ("vector"
            if select_kernel(core, None) is not None else "pure")


def calibrate(iters: int = 300_000, repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload (min over ``repeats``).

    The loop shape (attribute-free arithmetic + list append) tracks the
    interpreter dispatch cost that dominates the simulator itself.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc, out = 0, []
        for i in range(iters):
            acc = (acc + i * 31) & 0xFFFF
            if not i & 1023:
                out.append(acc)
        best = min(best, time.perf_counter() - start)
    return best


def bench_pair(core_name: str, app: str, n_instrs: int, warmup: int,
               repeats: int, fast_forward=None) -> dict:
    cfg = _CORES[core_name]()
    # Converted once, outside the timed loop, as the harness Runner does.
    trace = TraceArrays.from_instructions(
        SyntheticWorkload(get_profile(app)).generate(n_instrs))
    build_core(cfg).run(trace, warmup=warmup,       # untimed warm-up pass
                        fast_forward=fast_forward)
    times = []
    cycles = 0
    for _ in range(repeats):
        core = build_core(cfg)
        start = time.perf_counter()
        stats = core.run(trace, warmup=warmup, fast_forward=fast_forward)
        times.append(time.perf_counter() - start)
        cycles = int(stats.cycles)
    median = statistics.median(times)
    if len(times) >= 2:
        quartiles = statistics.quantiles(sorted(times), n=4,
                                         method="inclusive")
        iqr = quartiles[2] - quartiles[0]
    else:
        iqr = 0.0
    return {"median_s": median, "iqr_s": iqr, "repeats": repeats,
            "cycles": cycles, "kcycles_per_s": cycles / median / 1e3,
            "engine_tier": core.engine_tier_used,
            "config_hash": config_hash(cfg)}


def bench_accounting(core_name: str, app: str, n_instrs: int, warmup: int,
                     repeats: int) -> dict:
    """What always-on cycle accounting costs on the vector tier.

    The plain and the accounted leg run the same converted trace on the
    forced vector tier (so a kernel that stopped hosting accounting
    raises instead of passing for cheap), interleaved in alternating
    order, and the best-of-N times are compared.
    """
    cfg = _CORES[core_name]()
    trace = TraceArrays.from_instructions(
        SyntheticWorkload(get_profile(app)).generate(n_instrs))
    build_core(cfg).run(trace, warmup=warmup,       # untimed warm-up pass
                        accounting=CycleAccounting(), engine_tier="vector")
    plain_times, acct_times = [], []
    for rep in range(repeats):
        legs = [(None, plain_times), (CycleAccounting, acct_times)]
        if rep & 1:  # alternate order so neither leg always runs first
            legs.reverse()
        for make_acct, times in legs:
            core = build_core(cfg)
            accounting = make_acct() if make_acct is not None else None
            start = time.perf_counter()
            core.run(trace, warmup=warmup, accounting=accounting,
                     engine_tier="vector")
            times.append(time.perf_counter() - start)
    best_plain, best_acct = min(plain_times), min(acct_times)
    return {"plain_s": best_plain, "accounting_s": best_acct,
            "repeats": repeats, "engine_tier": core.engine_tier_used,
            "accounting_overhead": best_acct / best_plain - 1.0,
            "config_hash": config_hash(cfg)}


def bench_pool_sweep(n_instrs: int, warmup: int, repeats: int,
                     workers: int = 2) -> dict:
    """Wall time for the PAIRS batch through the simulation-service
    worker pool, cold store each repeat — the service path the pooled
    sweep (``sweep --workers``) takes, dispatch overhead included."""
    import tempfile

    from repro.service.jobs import JobSpec
    from repro.service.pool import SimulationPool
    from repro.service.store import ResultStore

    specs = [JobSpec.make(_CORES[core_name](), get_profile(app),
                          n_instrs=n_instrs, warmup=warmup)
             for core_name, app in PAIRS]
    times = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            with SimulationPool(n_workers=workers,
                                store=ResultStore(tmp)) as pool:
                start = time.perf_counter()
                records = pool.run_batch(specs)
                times.append(time.perf_counter() - start)
            assert not any(r["failed"] for r in records)
    median = statistics.median(times)
    if len(times) >= 2:
        quartiles = statistics.quantiles(sorted(times), n=4,
                                         method="inclusive")
        iqr = quartiles[2] - quartiles[0]
    else:
        iqr = 0.0
    return {"median_s": median, "iqr_s": iqr, "repeats": repeats,
            "workers": workers, "jobs": len(specs),
            "jobs_per_s": len(specs) / median}


def bench_submit_throughput(repeats: int, jobs: int = 250) -> dict:
    """Service submit throughput, journal-on vs journal-off.

    Every spec's result is pre-seeded in the store, so each submission
    exercises the full acceptance path (key, store hit, registry,
    journal write-through) without simulating — isolating what the
    write-ahead journal costs per accepted job.  The gate is
    self-relative (same host, same seconds), so it needs no baseline.

    The journal's per-submit cost (~15us against a ~300us acceptance
    path) sits well below this host's leg-to-leg jitter, so the legs
    are interleaved in alternating order, GC is paused while a leg is
    timed, and the best-of-N time is compared — the min estimates the
    noise-free floor that median-of-few cannot resolve.
    """
    import gc
    import tempfile

    from repro.service.cluster import ClusterService
    from repro.service.jobs import JobSpec
    from repro.service.journal import Journal
    from repro.service.store import ResultStore

    profile = get_profile("hmmer")
    cfg = _CORES["ino"]()
    specs = [JobSpec.make(cfg, profile, n_instrs=1_000 + i, warmup=100)
             for i in range(jobs)]
    on_times, off_times = [], []
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        for spec in specs:
            store.put(spec.key(), {"schema": 1, "bench": True})
        for spec in specs:  # untimed warm pass (page cache, allocator)
            ClusterService(store).submit(spec)
        for rep in range(repeats):
            legs = [("on", on_times), ("off", off_times)]
            if rep & 1:  # alternate order so neither leg always runs cold
                legs.reverse()
            for leg, times in legs:
                journal = None
                if leg == "on":
                    journal = Journal(Path(tmp) / f"journal-{rep}",
                                      sync="batch")
                service = ClusterService(store, journal=journal)
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    for spec in specs:
                        service.submit(spec)
                    times.append(time.perf_counter() - start)
                finally:
                    gc.enable()
                if journal is not None:
                    journal.close()
    best_on = min(on_times)
    best_off = min(off_times)
    return {"jobs": jobs, "repeats": repeats,
            "journal_on_s": best_on, "journal_off_s": best_off,
            "jobs_per_s": jobs / best_on,
            "journal_overhead": best_on / best_off - 1.0}


def bench_telemetry_submit(repeats: int, jobs: int = 250) -> dict:
    """Cached-submit throughput, telemetry-on vs telemetry-off.

    Same shape as :func:`bench_submit_throughput` but isolating the
    telemetry plane: neither leg journals, so the delta is purely the
    trace-id mint, span-log appends and metric increments riding each
    accepted job.  The hot cached path is the one the sweep drivers
    hammer, so this is where per-job observability cost would show.
    Interleaved legs, GC paused while timing, best-of-N compared.
    """
    import gc
    import tempfile

    from repro.service.cluster import ClusterService
    from repro.service.jobs import JobSpec
    from repro.service.store import ResultStore

    profile = get_profile("hmmer")
    cfg = _CORES["ino"]()
    specs = [JobSpec.make(cfg, profile, n_instrs=1_000 + i, warmup=100)
             for i in range(jobs)]
    on_times, off_times = [], []
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        for spec in specs:
            store.put(spec.key(), {"schema": 1, "bench": True})
        for spec in specs:  # untimed warm pass (page cache, allocator)
            ClusterService(store, telemetry=False).submit(spec)
        for rep in range(repeats):
            legs = [("on", on_times), ("off", off_times)]
            if rep & 1:  # alternate order so neither leg always runs cold
                legs.reverse()
            for leg, times in legs:
                service = ClusterService(store, telemetry=(leg == "on"))
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    for spec in specs:
                        service.submit(spec)
                    times.append(time.perf_counter() - start)
                finally:
                    gc.enable()
    best_on = min(on_times)
    best_off = min(off_times)
    return {"jobs": jobs, "repeats": repeats,
            "telemetry_on_s": best_on, "telemetry_off_s": best_off,
            "jobs_per_s": jobs / best_on,
            "telemetry_overhead": best_on / best_off - 1.0}


def _hist_quantile(buckets, counts, q: float) -> float:
    """Linear-interpolated quantile from fixed histogram buckets."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for index, count in enumerate(counts):
        upper = (buckets[index] if index < len(buckets)
                 else buckets[-1])
        if count and cumulative + count >= target:
            fraction = (target - cumulative) / count
            return lower + fraction * (upper - lower)
        cumulative += count
        lower = upper
    return buckets[-1]


def _queue_wait_counts(service) -> list:
    for series in service.telemetry.snapshot()["series"]:
        if series["name"] == "repro_queue_wait_seconds":
            return list(series["counts"]), list(series["buckets"])
    return [], []


def bench_cluster_throughput(repeats: int, nodes: int = 2,
                             node_workers: int = 1,
                             jobs: int = 16) -> dict:
    """Cluster throughput under closed-loop load vs a single pool.

    Baseline: the same cache-miss batch through one local
    ``SimulationPool`` sized like one node.  Cluster: a coordinator +
    ``nodes`` real node processes, driven over HTTP by closed-loop
    client threads at swept concurrency (each submits, long-polls to
    completion, submits the next).  Queue-wait p50/p95 come from the
    coordinator's ``repro_queue_wait_seconds`` histogram, diffed per
    leg.

    Workload: with fewer host cores than ``nodes x node_workers + 1``
    (this 1-CPU container), pure-CPU jobs cannot show cluster scaling —
    every simulator would share one core.  There the jobs carry a small
    ``test_stall_s`` sleep (first-delivery only, not part of the result
    key) modelling each node's independent compute capacity, and the
    entry self-describes via ``workload``.  On real multi-core hosts
    the sweep runs pure-CPU automatically.
    """
    import os
    import tempfile
    import threading

    from tests.chaos import ChaosFabric
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobSpec
    from repro.service.pool import SimulationPool
    from repro.service.store import ResultStore

    cores = os.cpu_count() or 1
    stall_s = 0.0 if cores >= nodes * node_workers + 1 else 0.45
    workload = ("cpu" if stall_s == 0.0
                else f"stall-augmented ({stall_s:g}s/job)")
    profile = get_profile("hmmer")
    cfg = _CORES["ino"]()

    leg_seq = iter(range(10_000))

    def batch():
        # Distinct n_instrs per job and leg: every submission is a
        # genuine cache miss, never served from the store.  Tags are
        # sequential so all legs stay in one narrow n_instrs band and
        # per-job simulation cost is comparable across legs.
        tag = next(leg_seq)
        return [JobSpec.make(cfg, profile,
                             n_instrs=900 + tag * jobs + i,
                             warmup=200, test_stall_s=stall_s)
                for i in range(jobs)]

    base_times = []
    with tempfile.TemporaryDirectory() as tmp:
        with SimulationPool(n_workers=node_workers,
                            store=ResultStore(tmp)) as pool:
            for rep in range(repeats):
                specs = batch()
                start = time.perf_counter()
                records = pool.run_batch(specs)
                base_times.append(time.perf_counter() - start)
                assert not any(r["failed"] for r in records)
    base_s = min(base_times)
    base_jps = jobs / base_s

    sweep = {}
    with tempfile.TemporaryDirectory() as tmp:
        fabric = ChaosFabric(tmp, workers=0, node_workers=node_workers)
        fabric.start()
        try:
            for _ in range(nodes):
                fabric.spawn_node()
            fabric.wait_nodes_alive(nodes)
            for conc in (2, 8):
                leg_times = []
                p50 = p95 = 0.0
                for rep in range(repeats):
                    specs = batch()
                    before, _ = _queue_wait_counts(fabric.service)
                    shares = [specs[c::conc] for c in range(conc)]
                    errors = []

                    def drive(share):
                        client = ServiceClient(fabric.url, timeout=60)
                        try:
                            for spec in share:  # closed loop
                                body = {
                                    "core": "ino", "app": "hmmer",
                                    "n": spec.n_instrs,
                                    "warmup": spec.warmup,
                                    "test_stall_s": spec.test_stall_s,
                                }
                                (entry, ) = client.submit(
                                    body, retries_on_busy=8,
                                    deadline_s=120)
                                final = client.wait(
                                    [entry["id"]], timeout_s=120,
                                    long_poll_s=10.0)[entry["id"]]
                                if final["status"] != "done":
                                    errors.append(final)
                        except Exception as exc:  # surfaced below
                            errors.append(exc)
                        finally:
                            client.close()

                    threads = [threading.Thread(target=drive, args=(s, ))
                               for s in shares if s]
                    start = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    leg_times.append(time.perf_counter() - start)
                    assert not errors, errors[:2]
                    after, buckets = _queue_wait_counts(fabric.service)
                    delta = [b - a for a, b in zip(before, after)]
                    p50 = _hist_quantile(buckets, delta, 0.50)
                    p95 = _hist_quantile(buckets, delta, 0.95)
                best = min(leg_times)
                sweep[str(conc)] = {
                    "clients": conc, "wall_s": best,
                    "jobs_per_s": jobs / best,
                    "queue_wait_p50_s": p50,
                    "queue_wait_p95_s": p95,
                }
        finally:
            fabric.stop()

    cluster_jps = max(leg["jobs_per_s"] for leg in sweep.values())
    return {"nodes": nodes, "node_workers": node_workers, "jobs": jobs,
            "repeats": repeats, "workload": workload,
            "host_cores": cores,
            "single_pool_s": base_s,
            "single_pool_jobs_per_s": base_jps,
            "concurrency": sweep,
            "cluster_jobs_per_s": cluster_jps,
            "cluster_speedup": cluster_jps / base_jps}


def run_suite(n_instrs: int, warmup: int, repeats: int) -> dict:
    calibration = calibrate()
    results = {}
    for core_name, app in PAIRS:
        entry = bench_pair(core_name, app, n_instrs, warmup, repeats)
        entry["normalized"] = entry["median_s"] / calibration
        results[f"{core_name}/{app}"] = entry
        print(f"  {core_name}/{app}: median {entry['median_s']:.3f}s "
              f"(IQR {entry['iqr_s']:.3f}s, "
              f"{entry['kcycles_per_s']:.0f} kcycles/s, "
              f"normalized {entry['normalized']:.2f})")
    for core_name, app in NOSKIP_PAIRS:
        entry = bench_pair(core_name, app, n_instrs, warmup, repeats,
                           fast_forward=False)
        entry["normalized"] = entry["median_s"] / calibration
        results[f"{core_name}/{app}:noskip"] = entry
        skip_on = results[f"{core_name}/{app}"]
        skip_on["speedup_vs_noskip"] = (entry["median_s"]
                                        / skip_on["median_s"])
        print(f"  {core_name}/{app}:noskip: median {entry['median_s']:.3f}s"
              f" (fast-forward buys "
              f"{skip_on['speedup_vs_noskip']:.2f}x)")
    # Reported, not gated: no "normalized" key, so --check skips it.
    acct_entry = bench_accounting("casino", "mcf", n_instrs, warmup,
                                  max(repeats * 2, 6))
    results["casino/mcf:acct"] = acct_entry
    print(f"  casino/mcf:acct: {acct_entry['accounting_s']:.3f}s with "
          f"accounting vs {acct_entry['plain_s']:.3f}s plain "
          f"(overhead {acct_entry['accounting_overhead']:+.1%}, "
          f"{acct_entry['engine_tier']} tier)")
    pool_entry = bench_pool_sweep(n_instrs, warmup, repeats)
    pool_entry["normalized"] = pool_entry["median_s"] / calibration
    results["pool/sweep"] = pool_entry
    print(f"  pool/sweep: median {pool_entry['median_s']:.3f}s for "
          f"{pool_entry['jobs']} jobs x {pool_entry['workers']} workers "
          f"({pool_entry['jobs_per_s']:.1f} jobs/s, "
          f"normalized {pool_entry['normalized']:.2f})")
    submit_entry = bench_submit_throughput(max(repeats * 3, 9))
    results["service/submit"] = submit_entry
    print(f"  service/submit: {submit_entry['jobs_per_s']:.0f} jobs/s "
          f"journal-on ({submit_entry['journal_on_s']:.3f}s vs "
          f"{submit_entry['journal_off_s']:.3f}s journal-off, "
          f"overhead {submit_entry['journal_overhead']:+.1%})")
    tel_entry = bench_telemetry_submit(max(repeats * 3, 9))
    results["service/telemetry"] = tel_entry
    print(f"  service/telemetry: {tel_entry['jobs_per_s']:.0f} jobs/s "
          f"telemetry-on ({tel_entry['telemetry_on_s']:.3f}s vs "
          f"{tel_entry['telemetry_off_s']:.3f}s telemetry-off, "
          f"overhead {tel_entry['telemetry_overhead']:+.1%})")
    cluster_entry = bench_cluster_throughput(min(repeats, 3))
    results["service/cluster"] = cluster_entry
    busiest = max(cluster_entry["concurrency"].values(),
                  key=lambda leg: leg["jobs_per_s"])
    print(f"  service/cluster: {cluster_entry['cluster_jobs_per_s']:.1f} "
          f"jobs/s over {cluster_entry['nodes']} nodes "
          f"({cluster_entry['cluster_speedup']:.2f}x single pool, "
          f"{cluster_entry['workload']}; queue wait "
          f"p50 {busiest['queue_wait_p50_s']:.3f}s / "
          f"p95 {busiest['queue_wait_p95_s']:.3f}s at "
          f"{busiest['clients']} clients)")
    return {
        "manifest": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "engine_tier": default_engine_tier(),
            "n_instrs": n_instrs, "warmup": warmup, "repeats": repeats,
        },
        "calibration_s": calibration,
        "results": results,
    }


def load_baseline(baseline_path: Path):
    """The parsed baseline report, or None (with a message) on failure."""
    try:
        with open(baseline_path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return None


def check_regressions(report: dict, baseline: dict, baseline_path: Path,
                      tolerance: float) -> int:
    """Exit status: 1 when any normalised median regressed > tolerance,
    or when the baseline is missing a leg this run produced.

    A missing leg is a hard, *named* failure — a baseline predating a
    new benchmark (say a ``:noskip`` pair) silently gating nothing is
    exactly the failure mode this harness exists to prevent; the fix is
    to regenerate and commit ``BENCH_core.json``.
    """
    base_results = baseline.get("results", {})
    failures = []
    missing = []
    for key, entry in report["results"].items():
        base = base_results.get(key)
        if base is None or not base.get("normalized"):
            if entry.get("normalized"):
                missing.append(key)
                print(f"  {key}: MISSING from baseline")
            else:
                print(f"  {key}: not normalised (skipped)")
            continue
        ratio = entry["normalized"] / base["normalized"]
        verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSED"
        print(f"  {key}: {ratio:.2f}x baseline ({verdict})")
        if ratio > 1.0 + tolerance:
            failures.append((key, ratio))
    status = 0
    if missing:
        print(f"\nFAIL: baseline {baseline_path} has no entry for "
              f"{len(missing)} leg(s) this run produced — regenerate the "
              f"baseline:", file=sys.stderr)
        for key in missing:
            print(f"  {key}", file=sys.stderr)
        status = 1
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{tolerance:.0%} vs {baseline_path}:", file=sys.stderr)
        for key, ratio in failures:
            print(f"  {key}: {ratio:.2f}x baseline", file=sys.stderr)
        status = 1
    if not status:
        print(f"\nOK: no benchmark regressed more than {tolerance:.0%}")
    return status


def check_tier_speedup(report: dict, baseline: dict,
                       min_speedup: float) -> int:
    """Cross-tier gate: the vectorized tier must buy ``min_speedup`` on
    every :data:`TIER_PAIRS` leg relative to the pure interpreter.

    Engages only when this run's auto-selected tier differs from the
    baseline's (manifests without the key predate the vectorized tier
    and count as ``pure``) — e.g. the first ``--check`` after the tier
    lands, or a ``REPRO_PURE_PY=1`` run against a vectorized baseline.
    Same-tier drift is the ``--tolerance`` gate's job.  Whichever side
    is pure, the comparison is oriented pure/vector, so a silently
    disengaged fast path reads as ~1.0x and fails loudly.
    """
    report_tier = report.get("manifest", {}).get("engine_tier", "pure")
    base_tier = baseline.get("manifest", {}).get("engine_tier", "pure")
    if report_tier == base_tier:
        print(f"  tier gate: baseline and run both on the "
              f"{report_tier!r} tier (cross-tier gate idle)")
        return 0
    failures = []
    for core_name, app in TIER_PAIRS:
        key = f"{core_name}/{app}"
        entry = report["results"].get(key, {})
        base = baseline.get("results", {}).get(key, {})
        if not entry.get("normalized") or not base.get("normalized"):
            continue  # missing legs already failed check_regressions
        if report_tier == "pure":  # baseline is the vectorized side
            speedup = entry["normalized"] / base["normalized"]
        else:
            speedup = base["normalized"] / entry["normalized"]
        verdict = "ok" if speedup >= min_speedup else "TOO SLOW"
        print(f"  {key}: vectorized tier {speedup:.2f}x pure "
              f"(need >= {min_speedup:.2f}x, {verdict})")
        if speedup < min_speedup:
            failures.append((key, speedup))
    if failures:
        print(f"\nFAIL: vectorized tier under {min_speedup:.2f}x the "
              f"pure interpreter on {len(failures)} leg(s):",
              file=sys.stderr)
        for key, speedup in failures:
            print(f"  {key}: {speedup:.2f}x < {min_speedup:.2f}x",
                  file=sys.stderr)
        return 1
    return 0


def check_fastforward(report: dict, min_speedup: float) -> int:
    """Exit status: 1 when quiescence skipping stopped paying for itself
    on the DRAM-bound pairs (skip-on must beat skip-off measurably)."""
    failures = []
    for core_name, app in NOSKIP_PAIRS:
        entry = report["results"].get(f"{core_name}/{app}", {})
        speedup = entry.get("speedup_vs_noskip")
        if speedup is None:
            continue
        verdict = "ok" if speedup >= min_speedup else "TOO SLOW"
        print(f"  {core_name}/{app}: fast-forward speedup "
              f"{speedup:.2f}x (need >= {min_speedup:.2f}x, {verdict})")
        if speedup < min_speedup:
            failures.append((f"{core_name}/{app}", speedup))
    if failures:
        print(f"\nFAIL: fast-forward no longer measurably faster than "
              f"skip-off on {len(failures)} pair(s):", file=sys.stderr)
        for key, speedup in failures:
            print(f"  {key}: {speedup:.2f}x < {min_speedup:.2f}x",
                  file=sys.stderr)
        return 1
    return 0


def check_journal_overhead(report: dict, max_overhead: float) -> int:
    """Exit status: 1 when journaled submit throughput trails the
    journal-off path by more than ``max_overhead`` (self-relative: both
    legs ran on this host in this invocation)."""
    entry = report["results"].get("service/submit")
    if entry is None or "journal_overhead" not in entry:
        return 0
    overhead = entry["journal_overhead"]
    verdict = "ok" if overhead <= max_overhead else "TOO SLOW"
    print(f"  service/submit: journal overhead {overhead:+.1%} "
          f"(max {max_overhead:.0%}, {verdict})")
    if overhead > max_overhead:
        print(f"\nFAIL: write-ahead journal costs {overhead:.1%} submit "
              f"throughput (> {max_overhead:.0%})", file=sys.stderr)
        return 1
    return 0


def check_telemetry_overhead(report: dict, max_overhead: float) -> int:
    """Exit status: 1 when the telemetry plane costs more than
    ``max_overhead`` cached-submit throughput (self-relative: both legs
    ran on this host in this invocation)."""
    entry = report["results"].get("service/telemetry")
    if entry is None or "telemetry_overhead" not in entry:
        return 0
    overhead = entry["telemetry_overhead"]
    verdict = "ok" if overhead <= max_overhead else "TOO SLOW"
    print(f"  service/telemetry: telemetry overhead {overhead:+.1%} "
          f"(max {max_overhead:.0%}, {verdict})")
    if overhead > max_overhead:
        print(f"\nFAIL: telemetry costs {overhead:.1%} cached-submit "
              f"throughput (> {max_overhead:.0%})", file=sys.stderr)
        return 1
    return 0


def check_cluster_speedup(report: dict, min_speedup: float) -> int:
    """Exit status: 1 when two cluster nodes fail to beat a single
    node-sized pool by ``min_speedup`` on cache-miss work
    (self-relative: both legs ran on this host in this invocation)."""
    entry = report["results"].get("service/cluster")
    if entry is None or "cluster_speedup" not in entry:
        return 0
    speedup = entry["cluster_speedup"]
    verdict = "ok" if speedup >= min_speedup else "TOO SLOW"
    print(f"  service/cluster: {entry['nodes']}-node speedup "
          f"{speedup:.2f}x over single pool "
          f"(min {min_speedup:.2f}x, {entry['workload']}, {verdict})")
    if speedup < min_speedup:
        print(f"\nFAIL: {entry['nodes']}-node cluster is only "
              f"{speedup:.2f}x a single pool (< {min_speedup:.2f}x)",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="host-side simulator benchmark with regression gate")
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: 3k instrs, 3 repeats")
    parser.add_argument("-n", type=int, default=None,
                        help="instructions per trace (default 8000)")
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed iterations per pair (default 5)")
    parser.add_argument("--out", metavar="PATH", default="BENCH_core.json",
                        help="where to write the report")
    parser.add_argument("--check", action="store_true",
                        help="compare against --baseline and gate")
    parser.add_argument("--baseline", metavar="PATH",
                        default="BENCH_core.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalised-median regression fraction")
    parser.add_argument("--min-tier-speedup", type=float, default=1.8,
                        help="--check also fails when the vectorized "
                             "engine tier buys less than this factor "
                             "over the pure interpreter on the gated "
                             "legs (engages only when the run and the "
                             "baseline were produced by different tiers)")
    parser.add_argument("--min-ff-speedup", type=float, default=1.1,
                        help="--check also fails when quiescence skipping "
                             "is not at least this much faster than "
                             "skip-off on the DRAM-bound pairs (a "
                             "disengaged fast path measures ~1.0x)")
    parser.add_argument("--max-journal-overhead", type=float, default=0.10,
                        help="--check also fails when journaled submit "
                             "throughput trails journal-off by more than "
                             "this fraction")
    parser.add_argument("--max-telemetry-overhead", type=float,
                        default=0.05,
                        help="--check also fails when telemetry-on "
                             "cached-submit throughput trails "
                             "telemetry-off by more than this fraction")
    parser.add_argument("--min-cluster-speedup", type=float, default=1.7,
                        help="--check also fails when a two-node cluster "
                             "does not beat a single node-sized pool by "
                             "this factor on cache-miss workloads")
    args = parser.parse_args(argv)

    n_instrs = args.n if args.n is not None else (3_000 if args.quick
                                                  else 8_000)
    warmup = args.warmup if args.warmup is not None else (
        500 if args.quick else 2_000)
    repeats = args.repeats if args.repeats is not None else (
        3 if args.quick else 5)

    print(f"benchmarking {len(PAIRS)} (core, app) pairs: "
          f"{n_instrs} instrs, {repeats} repeats")
    report = run_suite(n_instrs, warmup, repeats)
    print(f"calibration: {report['calibration_s']:.3f}s")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        baseline = load_baseline(Path(args.baseline))
        if baseline is None:
            return 1
        status = check_regressions(report, baseline, Path(args.baseline),
                                   args.tolerance)
        status = check_tier_speedup(report, baseline,
                                    args.min_tier_speedup) or status
        status = check_fastforward(report, args.min_ff_speedup) or status
        status = check_journal_overhead(report,
                                        args.max_journal_overhead) or status
        status = check_telemetry_overhead(
            report, args.max_telemetry_overhead) or status
        return check_cluster_speedup(report,
                                     args.min_cluster_speedup) or status
    return 0


if __name__ == "__main__":
    sys.exit(main())
