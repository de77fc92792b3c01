"""Pool- and store-backed drop-in runner for the experiment sweep.

Figure drivers call ``runner.run(cfg, profile)`` inside nested loops, so
a naive parallel runner cannot know the job set up front.  The
:class:`PooledRunner` solves this with a **collect pass**: the figure
function runs once in collecting mode, where ``run()`` records the
requested (config, profile) pair and returns an arithmetically benign
placeholder; the recorded grid is then fanned out through the pool (and
result store) in one batch; finally the figure runs again for real
against fully memoised results.  Drivers are pure functions of their
runner, so the second pass is exact — and any pair the collect pass
missed (e.g. behind data-dependent control flow) is simply computed
through the pool on demand during the real pass.

Records coming back from pool workers are produced by the same
``ResilientRunner._simulate`` path the serial sweep uses, so counters are
bit-identical to serial execution — asserted in tests.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.params import CoreConfig
from repro.common.stats import Stats
from repro.harness.resilience import FailureRecord, ResilientRunner
from repro.harness.runner import RunResult
from repro.power.accounting import EnergyReport
from repro.service.jobs import JobSpec, record_to_result
from repro.service.pool import SimulationPool
from repro.workloads.generator import WorkloadProfile


def _placeholder_result(cfg: CoreConfig, profile: WorkloadProfile,
                        accounting: bool) -> RunResult:
    """A benign stand-in for the collect pass: positive IPC, positive
    energy, zeroed accounting — figure arithmetic (ratios, geomeans,
    argmax) runs without dividing by zero, and nothing is simulated."""
    stats = Stats()
    stats.counters["cycles"] = 2000.0
    stats.counters["committed"] = 1000.0
    energy = EnergyReport(dynamic_j=1e-9, leakage_j=1e-9, by_group={},
                          cycles=2000.0, committed=1000.0)
    report = None
    if accounting:
        from repro.obs.accounting import COMPONENTS
        zero = {c: 0 for c in COMPONENTS}
        report = {"components": dict(zero), "fractions": dict(zero),
                  "cpi_stack": dict(zero), "cpi": 2.0,
                  "total_cycles": 0, "committed": 0}
    return RunResult(core=cfg, app=profile.name, stats=stats, energy=energy,
                     accounting=report)


class PooledRunner(ResilientRunner):
    """A ResilientRunner whose simulations execute in pool workers.

    Every cache miss — during a batch flush or an individual ``run()`` —
    is computed by a worker process via the resilient execute path and
    written to the content-addressed store, so a warm-store rerun of a
    whole sweep performs zero simulations.
    """

    def __init__(self, pool: SimulationPool,
                 n_instrs: int = 24_000, warmup: int = 6_000,
                 mem_cfg=None, sanitize: Optional[bool] = None,
                 retries: int = 1, accounting: bool = False,
                 sample_interval: Optional[int] = None) -> None:
        super().__init__(n_instrs=n_instrs, warmup=warmup, mem_cfg=mem_cfg,
                         sanitize=sanitize, retries=retries,
                         accounting=accounting,
                         sample_interval=sample_interval)
        self.pool = pool
        self._collecting = False
        #: result-cache key -> (cfg, profile) recorded by the collect pass.
        self._wanted: Dict[tuple, tuple] = {}

    # -- job plumbing ----------------------------------------------------------

    def _spec(self, cfg: CoreConfig, profile: WorkloadProfile) -> JobSpec:
        return JobSpec.make(cfg, profile, n_instrs=self.n_instrs,
                            warmup=self.warmup, mem_cfg=self.mem_cfg,
                            sanitize=self.sanitize, retries=self.retries,
                            accounting=self.accounting)

    def _adopt(self, key: tuple, cfg: CoreConfig, profile: WorkloadProfile,
               record: dict) -> RunResult:
        """Convert a pool/store record into the memoised RunResult,
        mirroring ResilientRunner's failure bookkeeping."""
        result = record_to_result(record, self._spec(cfg, profile))
        if result.failed:
            self.failures.append(FailureRecord(
                core=cfg.name, app=profile.name, seed=profile.seed,
                error=str(result.error or "failed in pool worker"),
                manifest=record.get("manifest", {})))
            self.excluded.add(profile.name)
        self._results[key] = result
        return result

    # -- the collect pass ------------------------------------------------------

    @contextlib.contextmanager
    def collecting(self):
        """Record requested (cfg, profile) pairs instead of simulating."""
        self._collecting = True
        try:
            yield self._wanted
        finally:
            self._collecting = False

    def flush(self, echo: Optional[Callable[[str], None]] = None) -> int:
        """Batch every collected pair through the pool; returns the number
        of jobs resolved (store hits included)."""
        pairs = [(key, cfg, profile)
                 for key, (cfg, profile) in self._wanted.items()
                 if key not in self._results]
        self._wanted.clear()
        if not pairs:
            return 0
        if echo:
            echo(f"[pool] {len(pairs)} job(s) across "
                 f"{self.pool.n_workers} worker(s)")
        records = self.pool.run_batch(
            [self._spec(cfg, profile) for _, cfg, profile in pairs])
        for (key, cfg, profile), record in zip(pairs, records):
            self._adopt(key, cfg, profile, record)
        return len(pairs)

    def run_figure(self, fn: Callable, profiles: Sequence):
        """Run one figure driver with collect -> flush -> real pass."""
        with self.collecting():
            try:
                fn(self, profiles)
            except Exception:
                # Placeholder arithmetic may trip a driver mid-collect;
                # whatever was recorded up to that point still batches,
                # and the real pass computes stragglers through the pool.
                pass
        # The collect pass must leave no failure bookkeeping behind.
        self.failures.clear()
        self.excluded.clear()
        self.flush()
        return fn(self, profiles)

    # -- execution -------------------------------------------------------------

    def run(self, cfg: CoreConfig, profile: WorkloadProfile) -> RunResult:
        key = self._result_key(cfg, profile)
        hit = self._cached(key, cfg)
        if hit is not None:
            return hit
        if self._collecting:
            self._wanted[key] = (cfg, profile)
            return _placeholder_result(cfg, profile, self.accounting)
        record = self.pool.run_batch([self._spec(cfg, profile)])[0]
        return self._adopt(key, cfg, profile, record)
