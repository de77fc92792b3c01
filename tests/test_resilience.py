"""Resilient sweep harness: failure capture, retry-with-reseed, graceful
degradation, and checkpoint/resume."""

import dataclasses
import json

import pytest

from repro.common.params import MemoryConfig, make_ino_config, make_ooo_config
from repro.common.stats import partial_geomean
from repro.engine.core_base import SimulationError
from repro.engine.faults import Fault, FaultInjector
from repro.experiments.sweep import run_sweep
from repro.harness.resilience import (
    RESEED_STRIDE,
    FailureRecord,
    ResilientRunner,
    SweepCheckpoint,
    failure_report,
)
from repro.harness.runner import Runner
from repro.workloads.suite import get_profile

N = 2_000
WARMUP = 500


def small_cfg(make=make_ooo_config, **over):
    """A config with a watchdog small enough to fail fast under faults."""
    return dataclasses.replace(make(), deadlock_cycles=2_000, **over)


def deadlock_hook(when):
    """fault_hook injecting a wakeup-drop when ``when(cfg, profile)``."""
    def hook(cfg, profile):
        if when(cfg, profile):
            return FaultInjector([Fault("drop_wakeup", seq=600)])
        return None
    return hook


# -- ResilientRunner ----------------------------------------------------------

def test_retry_with_reseed_recovers():
    """First attempt fails (captured), the reseeded retry succeeds, and the
    result is re-badged under the original app name."""
    profile = get_profile("mcf")
    runner = ResilientRunner(
        n_instrs=N, warmup=WARMUP, retries=1,
        fault_hook=deadlock_hook(lambda cfg, p: p.seed == profile.seed))
    result = runner.run(small_cfg(), profile)
    assert not result.failed
    assert result.app == "mcf"
    assert result.ipc > 0
    assert len(runner.failures) == 1
    record = runner.failures[0]
    assert record.check == "deadlock_watchdog"
    assert record.app == "mcf"
    assert record.seed == profile.seed
    assert record.debug
    assert runner.excluded == set()
    # The retry really used a different trace seed.
    assert f"mcf:{profile.seed + RESEED_STRIDE}:{N}" in runner._traces


def test_resilient_runner_reports_fast_forward_telemetry(monkeypatch):
    """ResilientRunner simulates through Runner._simulate, so it carries
    the same fast-forward telemetry as a plain Runner."""
    monkeypatch.delenv("REPRO_NO_SKIP", raising=False)
    profile = get_profile("mcf")
    plain = Runner(n_instrs=N, warmup=WARMUP).run(make_ooo_config(), profile)
    resilient = ResilientRunner(n_instrs=N, warmup=WARMUP).run(
        make_ooo_config(), profile)
    assert plain.ff_spans > 0
    assert resilient.ff_spans == plain.ff_spans
    assert resilient.ff_skipped_cycles == plain.ff_skipped_cycles


def test_reseeded_result_keeps_fast_forward_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_NO_SKIP", raising=False)
    profile = get_profile("mcf")
    runner = ResilientRunner(
        n_instrs=N, warmup=WARMUP, retries=1,
        fault_hook=deadlock_hook(lambda cfg, p: p.seed == profile.seed))
    result = runner.run(small_cfg(), profile)
    variant = dataclasses.replace(profile,
                                  seed=profile.seed + RESEED_STRIDE)
    retried = runner.run(small_cfg(), variant)
    assert result.app == "mcf" and retried.app == "mcf"
    assert result.ff_spans == retried.ff_spans > 0
    assert result.ff_skipped_cycles == retried.ff_skipped_cycles


def test_renamed_failure_placeholder_is_shared():
    """A failed placeholder serves every name of the same machine, badged
    with the name asked for."""
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP, retries=0,
                             fault_hook=deadlock_hook(lambda cfg, p: True))
    profile = get_profile("hmmer")
    first = runner.run(small_cfg(), profile)
    again = runner.run(small_cfg(name="ooo-alias"), profile)
    assert first.failed and again.failed
    assert again.core.name == "ooo-alias"
    assert len(runner.failures) == 1


def test_permanent_failure_is_excluded():
    """When every attempt fails the app is excluded, a failed placeholder
    is cached, and the whole thing never raises."""
    profile = get_profile("mcf")
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP, retries=1,
                             fault_hook=deadlock_hook(lambda cfg, p: True))
    result = runner.run(small_cfg(), profile)
    assert result.failed
    assert result.ipc == 0.0
    assert result.error
    assert runner.excluded == {"mcf"}
    assert len(runner.failures) == 2  # first attempt + one retry
    assert runner.failures[1].attempt == 1
    # Cached: a second call returns the placeholder without resimulating.
    assert runner.run(small_cfg(), profile) is result


def test_speedups_degrade_gracefully():
    """A figure-style speedup sweep with one permanently failing app
    completes, drops the app from every config, and reports it."""
    ooo = small_cfg()
    ino = small_cfg(make_ino_config)
    profiles = [get_profile("mcf"), get_profile("hmmer")]
    runner = ResilientRunner(
        n_instrs=N, warmup=WARMUP, retries=1,
        fault_hook=deadlock_hook(
            lambda cfg, p: cfg.name == ooo.name and p.name == "mcf"))
    speedups = runner.speedups([ooo], profiles, baseline=ino)
    assert set(speedups[ooo.name]) == {"hmmer"}
    assert speedups[ooo.name]["hmmer"] > 0
    # Partial aggregation still works on the surviving apps.
    value, dropped = partial_geomean(speedups[ooo.name].values())
    assert value > 0 and dropped == 0
    failures, excluded = runner.drain()
    assert excluded == ["mcf"]
    assert len(failures) == 2
    report = failure_report(failures, excluded)
    assert "mcf" in report and "deadlock_watchdog" in report
    # drain() cleared the ledgers for the next figure.
    assert runner.failures == [] and runner.excluded == set()


def test_failure_record_from_error():
    exc = SimulationError("boom", check="cycle_budget", cycle=99,
                          debug="rob=3")
    record = FailureRecord.from_error(small_cfg(), get_profile("mcf"), exc,
                                      attempt=2)
    assert record.check == "cycle_budget"
    assert record.cycle == 99
    assert record.debug == "rob=3"
    assert record.attempt == 2
    summary = record.summary()
    assert "mcf" in summary and "cycle 99" in summary and "retry #2" in summary


def test_runner_mem_cfg_in_cache_key():
    """Satellite fix: mutating the memory config must not serve results
    cached under the old hierarchy."""
    runner = Runner(n_instrs=N, warmup=WARMUP)
    cfg, profile = make_ooo_config(), get_profile("mcf")
    with_pf = runner.run(cfg, profile)
    key_before = runner._result_key(cfg, profile)
    runner.mem_cfg = MemoryConfig(prefetch_enabled=False)
    without_pf = runner.run(cfg, profile)
    assert runner._result_key(cfg, profile) != key_before
    assert with_pf is not without_pf


# -- SweepCheckpoint ----------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "sweep.ckpt.json"
    ckpt = SweepCheckpoint(path)
    assert "Figure 6" not in ckpt
    ckpt.put("Figure 6", {"casino": 1.3}, exclusions=["mcf"],
             failures=["mcf: deadlock"])
    reloaded = SweepCheckpoint(path)
    assert "Figure 6" in reloaded
    entry = reloaded.get("Figure 6")
    assert entry["result"] == {"casino": 1.3}
    assert entry["exclusions"] == ["mcf"]
    assert entry["failures"] == ["mcf: deadlock"]
    assert reloaded.completed() == ["Figure 6"]
    reloaded.clear()
    assert not path.exists()
    assert SweepCheckpoint(path).completed() == []


def test_checkpoint_corrupt_file_restarts(tmp_path):
    path = tmp_path / "sweep.ckpt.json"
    path.write_text("{not json")
    assert SweepCheckpoint(path).completed() == []
    path.write_text(json.dumps([1, 2, 3]))  # wrong shape
    assert SweepCheckpoint(path).completed() == []


def test_checkpoint_write_is_atomic(tmp_path):
    path = tmp_path / "sweep.ckpt.json"
    ckpt = SweepCheckpoint(path)
    ckpt.put("A", {"x": 1})
    # No stray temp file, and the on-disk JSON is complete.
    assert list(tmp_path.iterdir()) == [path]
    assert json.loads(path.read_text())["A"]["result"] == {"x": 1}


# -- run_sweep ----------------------------------------------------------------

def _silent(_line):
    pass


def test_run_sweep_resumes_from_checkpoint(tmp_path):
    """Checkpointed figures are not recomputed on the second invocation."""
    calls = []

    def job(name, value):
        def fn(runner, profiles):
            calls.append(name)
            return {name: value}
        return (name, fn)

    jobs = [job("A", 1), job("B", 2)]
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP)
    out = tmp_path / "out.txt"
    ckpt = SweepCheckpoint(tmp_path / "ck.json")
    results = run_sweep(runner, [], ckpt, out_path=str(out), jobs=jobs,
                        echo=_silent)
    assert calls == ["A", "B"]
    assert results == {"A": {"A": 1}, "B": {"B": 2}}
    assert out.read_text()  # the report was written
    # Second run: everything comes from the (re-loaded) checkpoint.
    calls.clear()
    results = run_sweep(runner, [], SweepCheckpoint(tmp_path / "ck.json"),
                        jobs=jobs, echo=_silent)
    assert calls == []
    assert results == {"A": {"A": 1}, "B": {"B": 2}}


def test_run_sweep_contains_figure_failures(tmp_path):
    """A figure driver that raises is reported and skipped; later figures
    still run and the broken one is NOT checkpointed (so a fixed rerun
    recomputes it)."""
    def boom(runner, profiles):
        raise RuntimeError("driver bug")

    def ok(runner, profiles):
        return {"v": 1}

    ckpt = SweepCheckpoint(tmp_path / "ck.json")
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP)
    results = run_sweep(runner, [], ckpt, jobs=[("Bad", boom), ("Good", ok)],
                        echo=_silent)
    assert "Bad" not in results and "Bad" not in ckpt
    assert results["Good"] == {"v": 1} and "Good" in ckpt


def test_run_sweep_reports_exclusions(tmp_path):
    """An app that fails inside a figure ends up in that figure's
    checkpoint entry with a failure summary."""
    profile = get_profile("mcf")
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP, retries=0,
                             fault_hook=deadlock_hook(lambda cfg, p: True))

    def fig(r, profiles):
        result = r.run(small_cfg(), profiles[0])
        return {"ipc": result.ipc}

    ckpt = SweepCheckpoint(tmp_path / "ck.json")
    lines = []
    results = run_sweep(runner, [profile], ckpt, jobs=[("Figure X", fig)],
                        echo=lines.append)
    assert results["Figure X"] == {"ipc": 0.0}
    entry = ckpt.get("Figure X")
    assert entry["exclusions"] == ["mcf"]
    assert any("deadlock_watchdog" in f for f in entry["failures"])
    assert any("excluded" in line for line in lines)
