"""Memoised simulation runner.

Running 25 applications across half a dozen core models is the unit of work
behind every figure; the :class:`Runner` caches traces per profile and
statistics per (core-config, workload) pair so the figure drivers and the
pytest benchmarks can share work within a process.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.common.params import CoreConfig, MemoryConfig
from repro.common.stats import Stats, geomean
from repro.cores import build_core
from repro.engine.soatrace import TraceArrays
from repro.power.accounting import EnergyReport, build_power_model
from repro.workloads.generator import SyntheticWorkload, WorkloadProfile


@dataclass
class RunResult:
    """One (core, application) simulation with derived metrics.

    ``failed`` marks a placeholder produced by the resilience layer for a
    run that raised ``SimulationError`` (its stats are empty, IPC is 0).
    """

    core: CoreConfig
    app: str
    stats: Stats
    energy: EnergyReport
    failed: bool = False
    error: Optional[str] = None
    #: CPI-stack report (``CycleAccounting.report()``) when the runner was
    #: built with ``accounting=True``; ``None`` otherwise.
    accounting: Optional[dict] = None
    #: Per-reason stall counters (``MetricsSampler.stall_breakdown()``)
    #: when the runner samples; ``None`` otherwise.
    stalls: Optional[Dict[str, float]] = None
    #: Fast-forward telemetry from the event-driven quiescence skipper:
    #: spans jumped and cycles elided.  Observability only — the timed
    #: counters are bit-identical with skipping on or off.
    ff_spans: int = 0
    ff_skipped_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def _cfg_key(cfg: CoreConfig) -> str:
    """The config's timing identity.  ``name`` is a label no core, power
    model or memory model reads, so configs that differ only in name
    share one cache entry (the sweep asks for the same machine under
    several names)."""
    return repr([(field.name, getattr(cfg, field.name))
                 for field in dataclasses.fields(cfg)
                 if field.name != "name"])


def _mem_key(mem_cfg: Optional[MemoryConfig]) -> str:
    # Snapshot the *current* field values: a mutated (or swapped) memory
    # config must never serve results cached under the old hierarchy.
    mem = mem_cfg if mem_cfg is not None else MemoryConfig()
    return repr(sorted(dataclasses.asdict(mem).items()))


class Runner:
    """Caches traces and per-(core, memory, app) results."""

    #: Default trace-cache bound.  Traces dominate a runner's footprint
    #: (tens of MB per 24k-instruction trace set), so long-lived service
    #: workers need the cache bounded; 64 entries comfortably covers the
    #: 25-app suite plus seed variants within one figure.
    DEFAULT_TRACE_CACHE_ENTRIES = 64

    def __init__(self, n_instrs: int = 24_000, warmup: int = 6_000,
                 mem_cfg: Optional[MemoryConfig] = None,
                 sanitize: Optional[bool] = None,
                 accounting: bool = False,
                 sample_interval: Optional[int] = None,
                 trace_cache_entries: Optional[int] = None,
                 trace_store=None) -> None:
        self.n_instrs = n_instrs
        self.warmup = warmup
        self.mem_cfg = mem_cfg
        self.sanitize = sanitize
        #: Attach a CycleAccounting observer to every simulation and carry
        #: its CPI-stack report on the RunResult.  Observers are read-only,
        #: so cached results stay valid either way.
        self.accounting = accounting
        #: When set, attach a MetricsSampler with this interval and carry
        #: its stall breakdown on the RunResult.
        self.sample_interval = sample_interval
        #: LRU bound on the per-profile trace cache (None/0 = unbounded).
        self.trace_cache_entries = (self.DEFAULT_TRACE_CACHE_ENTRIES
                                    if trace_cache_entries is None
                                    else trace_cache_entries)
        #: Traces evicted over this runner's lifetime (reported by the
        #: service ``/stats`` endpoint for long-lived worker processes).
        self.trace_evictions = 0
        #: In-process trace-cache hits/misses (a miss that the shared
        #: TraceStore satisfies still counts as a miss here — the store
        #: keeps its own hit/miss counters).
        self.trace_hits = 0
        self.trace_misses = 0
        #: Optional cross-process trace cache (service.store.TraceStore):
        #: consulted on an in-process LRU miss, published to on generate,
        #: so pool workers share one generation of each (app, seed, n).
        self.trace_store = trace_store
        #: ``fault_hook(cfg, profile) -> Optional[FaultInjector]`` lets
        #: tests (and chaos runs) perturb specific (core, app) pairs.
        self.fault_hook = None
        #: key -> [trace, its TraceArrays twin or None until first run]:
        #: the SoA columns the vector tier consumes are converted once per
        #: cached trace and evicted with it.
        self._traces: "OrderedDict[str, list]" = OrderedDict()
        self._results: Dict[tuple, RunResult] = {}

    def _observers(self):
        """Fresh (accounting, sampler) observers per the runner config."""
        from repro.obs.accounting import CycleAccounting
        from repro.obs.metrics import MetricsSampler
        acct = CycleAccounting() if self.accounting else None
        sampler = (MetricsSampler(self.sample_interval)
                   if self.sample_interval else None)
        return acct, sampler

    def trace(self, profile: WorkloadProfile) -> list:
        """The (LRU-cached) dynamic trace for a workload profile."""
        return self._trace_entry(profile)[0]

    def trace_arrays(self, profile: WorkloadProfile) -> TraceArrays:
        """The SoA twin of :meth:`trace`, converted on first use and
        cached (and evicted) with the trace itself."""
        entry = self._trace_entry(profile)
        if entry[1] is None:
            entry[1] = TraceArrays.from_instructions(entry[0])
        return entry[1]

    def _trace_entry(self, profile: WorkloadProfile) -> list:
        key = f"{profile.name}:{profile.seed}:{self.n_instrs}"
        entry = self._traces.get(key)
        if entry is not None:
            self.trace_hits += 1
            self._traces.move_to_end(key)
            return entry
        self.trace_misses += 1
        trace = (self.trace_store.get(profile, self.n_instrs)
                 if self.trace_store is not None else None)
        if trace is None:
            trace = SyntheticWorkload(profile).generate(self.n_instrs)
            if self.trace_store is not None:
                self.trace_store.put(profile, self.n_instrs, trace)
        entry = self._traces[key] = [trace, None]
        if self.trace_cache_entries and len(self._traces) > self.trace_cache_entries:
            self._traces.popitem(last=False)
            self.trace_evictions += 1
        return entry

    def trace_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters for the in-process trace LRU."""
        return {"hits": self.trace_hits, "misses": self.trace_misses,
                "evictions": self.trace_evictions,
                "entries": len(self._traces)}

    def _result_key(self, cfg: CoreConfig, profile: WorkloadProfile) -> tuple:
        return (_cfg_key(cfg), _mem_key(self.mem_cfg), profile.name,
                profile.seed, self.n_instrs, self.warmup)

    def _cached(self, key: tuple, cfg: CoreConfig) -> Optional[RunResult]:
        """The memoised result under ``key``, badged as ``cfg``'s (the
        two configs may differ in ``name``)."""
        hit = self._results.get(key)
        if hit is None or hit.core.name == cfg.name:
            return hit
        return dataclasses.replace(hit, core=cfg)

    def _simulate(self, cfg: CoreConfig, profile: WorkloadProfile) -> RunResult:
        """Uncached single simulation (the seam tests override to inject
        faults; ``fault_hook`` arms a fault injector per run)."""
        core = build_core(cfg, self.mem_cfg)
        faults = self.fault_hook(cfg, profile) if self.fault_hook else None
        acct, sampler = self._observers()
        stats = core.run(self.trace_arrays(profile), warmup=self.warmup,
                         sanitize=self.sanitize, faults=faults,
                         accounting=acct, sampler=sampler)
        report = build_power_model(cfg).energy(stats)
        return RunResult(core=cfg, app=profile.name, stats=stats,
                         energy=report,
                         accounting=acct.report() if acct else None,
                         stalls=(sampler.stall_breakdown()
                                 if sampler else None),
                         ff_spans=core.ff_spans,
                         ff_skipped_cycles=core.ff_skipped_cycles)

    def run(self, cfg: CoreConfig, profile: WorkloadProfile) -> RunResult:
        """Simulate ``profile`` on ``cfg`` (cached)."""
        key = self._result_key(cfg, profile)
        hit = self._cached(key, cfg)
        if hit is not None:
            return hit
        result = self._simulate(cfg, profile)
        self._results[key] = result
        return result

    def run_suite(self, cfg: CoreConfig,
                  profiles: Sequence[WorkloadProfile]) -> Dict[str, RunResult]:
        """Simulate every profile on ``cfg``."""
        return {p.name: self.run(cfg, p) for p in profiles}

    def run_seeds(self, cfg: CoreConfig, profile: WorkloadProfile,
                  n_seeds: int = 3) -> Dict[int, RunResult]:
        """Simulate ``n_seeds`` seed-variants of one profile (statistical
        robustness checks): seed k uses ``profile.seed + 1000 * k``."""
        out: Dict[int, RunResult] = {}
        for k in range(n_seeds):
            variant = dataclasses.replace(
                profile, name=f"{profile.name}#s{k}",
                seed=profile.seed + 1000 * k)
            out[k] = self.run(cfg, variant)
        return out

    # -- comparisons -----------------------------------------------------------

    def speedups(self, cfgs: Sequence[CoreConfig],
                 profiles: Sequence[WorkloadProfile],
                 baseline: CoreConfig) -> Dict[str, Dict[str, float]]:
        """Per-app IPC of each config normalised to ``baseline``.

        Returns ``{config name: {app: speedup}}``.
        """
        base = {p.name: self.run(baseline, p).ipc for p in profiles}
        out: Dict[str, Dict[str, float]] = {}
        for cfg in cfgs:
            out[cfg.name] = {
                p.name: self.run(cfg, p).ipc / base[p.name] for p in profiles
            }
        return out

    @staticmethod
    def geomean_speedup(per_app: Dict[str, float]) -> float:
        return geomean(per_app.values())
