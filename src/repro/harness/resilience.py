"""Failure containment for experiment sweeps.

Every figure funnels through :class:`~repro.harness.runner.Runner`; before
this module a single ``SimulationError`` (deadlock watchdog, cycle-budget
overrun, sanitizer violation) aborted a whole multi-minute sweep with no
partial results.  The resilience layer adds three pieces:

* :class:`ResilientRunner` — a drop-in ``Runner`` that captures structured
  :class:`FailureRecord` diagnostics instead of propagating, optionally
  retries failed synthetic-trace runs with a fresh generator seed, and
  degrades gracefully: a permanently-failing app is *excluded* from
  speedup aggregation (so figures report a partial geomean with an
  explicit exclusion list) rather than killing the sweep.
* :class:`SweepCheckpoint` — atomic per-figure JSON checkpointing so
  ``scripts/run_all_experiments.py`` resumes after a crash or ^C instead
  of recomputing completed figures.
* :func:`failure_report` — render the captured diagnostics for humans.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.common.params import CoreConfig, MemoryConfig
from repro.common.stats import Stats
from repro.engine.core_base import SimulationError
from repro.harness.export import jsonable
from repro.harness.runner import Runner, RunResult
from repro.power.accounting import build_power_model
from repro.workloads.generator import WorkloadProfile

#: Seed stride between retry attempts (a prime, so reseeded variants never
#: collide with the ``run_seeds`` +1000k statistical variants).
RESEED_STRIDE = 7919


@dataclass
class FailureRecord:
    """One captured simulation failure with its structured diagnostics."""

    core: str
    app: str
    seed: int
    error: str
    check: str = ""          # which detector fired (watchdog/sanitizer/...)
    cycle: Optional[int] = None
    debug: str = ""          # the core's _debug_state() snapshot
    attempt: int = 0         # 0 = first run, k = k-th reseeded retry
    details: dict = field(default_factory=dict)
    #: Provenance (config hash, trace seed, git rev, ...) so the failure
    #: is attributable after the fact — see repro.obs.provenance.
    manifest: dict = field(default_factory=dict)

    @classmethod
    def from_error(cls, cfg: CoreConfig, profile: WorkloadProfile,
                   exc: SimulationError, attempt: int = 0) -> "FailureRecord":
        from repro.obs.provenance import run_manifest
        details = dict(getattr(exc, "details", {}) or {})
        return cls(core=cfg.name, app=profile.name, seed=profile.seed,
                   error=str(exc), check=str(details.get("check", "")),
                   cycle=details.get("cycle"),
                   debug=str(details.get("debug", "")),
                   attempt=attempt, details=details,
                   manifest=run_manifest(cfg, profile))

    def summary(self) -> str:
        where = f" at cycle {self.cycle}" if self.cycle is not None else ""
        retry = f" (retry #{self.attempt})" if self.attempt else ""
        return (f"{self.core}/{self.app} seed={self.seed}{retry}: "
                f"[{self.check or 'error'}]{where} {self.error}")


def failure_report(failures: Sequence[FailureRecord],
                   excluded: Sequence[str]) -> str:
    """Human-readable digest of a sweep's captured failures."""
    lines = [f"{len(failures)} failed run(s), "
             f"{len(excluded)} app(s) excluded"]
    for record in failures:
        lines.append(f"  - {record.summary()}")
    if excluded:
        lines.append(f"  excluded apps: {sorted(excluded)}")
    return "\n".join(lines)


class ResilientRunner(Runner):
    """A Runner that contains failures instead of propagating them.

    ``retries`` reseeded attempts are made for a failed run (the synthetic
    trace is regenerated with ``seed + 7919 * k`` under the same app name,
    so a pathological random trace does not kill a figure).  When every
    attempt fails, the app is added to :attr:`excluded`, a placeholder
    ``RunResult(failed=True)`` is cached, and aggregation via
    :meth:`speedups` silently drops the app — callers read
    :attr:`failures` / :attr:`excluded` (or :meth:`drain`) to report it.
    """

    def __init__(self, n_instrs: int = 24_000, warmup: int = 6_000,
                 mem_cfg: Optional[MemoryConfig] = None,
                 sanitize: Optional[bool] = None, retries: int = 1,
                 fault_hook=None, accounting: bool = False,
                 sample_interval: Optional[int] = None,
                 trace_cache_entries: Optional[int] = None,
                 trace_store=None) -> None:
        super().__init__(n_instrs=n_instrs, warmup=warmup, mem_cfg=mem_cfg,
                         sanitize=sanitize, accounting=accounting,
                         sample_interval=sample_interval,
                         trace_cache_entries=trace_cache_entries,
                         trace_store=trace_store)
        self.retries = retries
        self.fault_hook = fault_hook
        self.failures: List[FailureRecord] = []
        self.excluded: Set[str] = set()

    # -- simulation with capture -------------------------------------------------

    def run(self, cfg: CoreConfig, profile: WorkloadProfile) -> RunResult:
        key = self._result_key(cfg, profile)
        hit = self._cached(key, cfg)
        if hit is not None:
            return hit
        try:
            return super().run(cfg, profile)
        except SimulationError as exc:
            self.failures.append(FailureRecord.from_error(cfg, profile, exc))
        for attempt in range(1, self.retries + 1):
            variant = dataclasses.replace(
                profile, seed=profile.seed + RESEED_STRIDE * attempt)
            try:
                retried = super().run(cfg, variant)
            except SimulationError as exc:
                self.failures.append(
                    FailureRecord.from_error(cfg, variant, exc, attempt))
                continue
            # Re-badge under the original app name so figure aggregation
            # keys stay stable, and memoise under the original profile.
            result = dataclasses.replace(retried, core=cfg,
                                         app=profile.name)
            self._results[key] = result
            return result
        self.excluded.add(profile.name)
        failed = RunResult(core=cfg, app=profile.name, stats=Stats(),
                           energy=build_power_model(cfg).energy(Stats()),
                           failed=True, error=self.failures[-1].error)
        self._results[key] = failed
        return failed

    # -- degraded aggregation -----------------------------------------------------

    def speedups(self, cfgs: Sequence[CoreConfig],
                 profiles: Sequence[WorkloadProfile],
                 baseline: CoreConfig) -> Dict[str, Dict[str, float]]:
        """Like ``Runner.speedups`` but failed apps are excluded from every
        config's dict (recorded in :attr:`excluded`) instead of raising."""
        base: Dict[str, float] = {}
        usable: List[WorkloadProfile] = []
        for profile in profiles:
            result = self.run(baseline, profile)
            if result.failed or result.ipc <= 0.0:
                self.excluded.add(profile.name)
                continue
            base[profile.name] = result.ipc
            usable.append(profile)
        out: Dict[str, Dict[str, float]] = {}
        for cfg in cfgs:
            per_app: Dict[str, float] = {}
            for profile in usable:
                result = self.run(cfg, profile)
                if result.failed or result.ipc <= 0.0:
                    self.excluded.add(profile.name)
                    continue
                per_app[profile.name] = result.ipc / base[profile.name]
            out[cfg.name] = per_app
        # An app that failed on *any* config is dropped everywhere so each
        # figure aggregates the same partial app set.
        for name in out:
            out[name] = {app: value for app, value in out[name].items()
                         if app not in self.excluded}
        return out

    # -- reporting ----------------------------------------------------------------

    def drain(self):
        """Return and clear ``(failures, excluded)`` — call between figures
        so each reports only its own casualties."""
        failures, excluded = self.failures, self.excluded
        self.failures, self.excluded = [], set()
        return failures, sorted(excluded)


class SweepCheckpoint:
    """Per-figure JSON checkpoint for a long experiment sweep.

    The file maps figure name to its (JSON-normalised) result plus any
    exclusions; writes are atomic (tmp file + ``os.replace``) so a kill at
    any instant leaves a loadable checkpoint.  A corrupt or missing file
    simply restarts the sweep from scratch.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.data: Dict[str, dict] = {}
        if self.path.exists():
            try:
                with open(self.path) as fh:
                    loaded = json.load(fh)
                if isinstance(loaded, dict):
                    self.data = loaded
            except (json.JSONDecodeError, OSError):
                self.data = {}

    def __contains__(self, figure: str) -> bool:
        return figure in self.data

    def get(self, figure: str) -> dict:
        return self.data[figure]

    def put(self, figure: str, result,
            exclusions: Sequence[str] = (),
            failures: Sequence[str] = (),
            manifest: Optional[dict] = None) -> None:
        entry = {"result": jsonable(result),
                 "exclusions": list(exclusions),
                 "failures": list(failures)}
        if manifest:
            entry["manifest"] = jsonable(manifest)
        self.data[figure] = entry
        self._flush()

    def completed(self) -> List[str]:
        return list(self.data)

    def clear(self) -> None:
        self.data = {}
        if self.path.exists():
            self.path.unlink()

    def _flush(self) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)
