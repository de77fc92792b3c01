"""Acceptance: pooled figure sweeps match serial bit-for-bit and a
warm-store rerun performs zero simulations."""

import dataclasses

import pytest

from repro.common.params import (
    make_casino_config,
    make_freeway_config,
    make_ino_config,
    make_lsc_config,
    make_ooo_config,
)
from repro.experiments import fig6_ipc
from repro.harness.resilience import ResilientRunner, SweepCheckpoint
from repro.obs.provenance import counter_digest
from repro.service.pool import SimulationPool
from repro.service.runner import PooledRunner
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

N, WARMUP = 1200, 200
APPS = ["hmmer", "mcf", "milc"]
CONFIGS = [make_ino_config(), make_lsc_config(), make_freeway_config(),
           make_casino_config(), make_ooo_config()]


@pytest.fixture()
def profiles():
    return [SUITE[app] for app in APPS]


def _serial_figure(profiles):
    runner = ResilientRunner(n_instrs=N, warmup=WARMUP)
    return runner, fig6_ipc.run(runner, profiles)


class TestPooledFigureParity:
    def test_fig6_identical_to_serial(self, profiles):
        serial_runner, serial = _serial_figure(profiles)
        with SimulationPool(n_workers=2) as pool:
            pooled_runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            pooled = pooled_runner.run_figure(fig6_ipc.run, profiles)
        assert pooled == serial
        # Counter digests agree on every (core, app) pair — both runners
        # memoise, so these lookups trigger no extra simulation.
        for cfg in CONFIGS:
            for profile in profiles:
                ser = serial_runner.run(cfg, profile)
                par = pooled_runner.run(cfg, profile)
                assert counter_digest(ser.stats) == \
                    counter_digest(par.stats), (cfg.name, profile.name)

    def test_collect_pass_batches_whole_grid(self, profiles):
        with SimulationPool(n_workers=1) as pool:
            runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            runner.run_figure(fig6_ipc.run, profiles)
            # 5 configs x 3 apps, all discovered by the collect pass and
            # submitted as one batch.
            assert pool.stats["submitted"] == len(CONFIGS) * len(profiles)
        assert not runner.failures and not runner.excluded

    def test_collect_pass_submits_renamed_configs_once(self, profiles):
        aliases = [dataclasses.replace(make_casino_config(), name=name)
                   for name in ("casino", "ConD[32,14]", "nolq_osca")]

        def figure(runner, profs):
            return {(cfg.name, p.name): runner.run(cfg, p).core.name
                    for cfg in aliases for p in profs}

        with SimulationPool(n_workers=1) as pool:
            runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            badges = runner.run_figure(figure, profiles)
            assert pool.stats["submitted"] == len(profiles)
        assert all(name == badge for (name, _), badge in badges.items())


class TestWarmStoreRerun:
    def test_rerun_performs_zero_simulations(self, tmp_path, profiles):
        store_dir = tmp_path / "store"
        with SimulationPool(n_workers=1,
                            store=ResultStore(store_dir)) as pool:
            runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            cold = runner.run_figure(fig6_ipc.run, profiles)
            n_pairs = len(CONFIGS) * len(profiles)
            assert pool.stats["dispatched"] == n_pairs

        # Fresh pool, fresh runner, same store: everything cache-served.
        warm_store = ResultStore(store_dir)
        with SimulationPool(n_workers=1, store=warm_store) as pool:
            runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            warm = runner.run_figure(fig6_ipc.run, profiles)
            assert pool.stats["dispatched"] == 0, \
                "warm rerun must not simulate anything"
            assert pool.stats["cached"] == n_pairs
        assert warm_store.stats["hits"] == n_pairs
        assert warm_store.stats["misses"] == 0
        assert warm == cold


class TestSweepIntegration:
    def test_run_sweep_with_pooled_runner(self, tmp_path, profiles):
        from repro.experiments.sweep import run_sweep
        ckpt = SweepCheckpoint(str(tmp_path / "ckpt.json"))
        serial_ckpt = SweepCheckpoint(str(tmp_path / "ckpt-serial.json"))
        jobs = [("Figure 6", fig6_ipc.run)]
        serial_runner = ResilientRunner(n_instrs=N, warmup=WARMUP)
        serial = run_sweep(serial_runner, profiles, serial_ckpt,
                           jobs=jobs, echo=lambda line: None)
        with SimulationPool(n_workers=1) as pool:
            runner = PooledRunner(pool, n_instrs=N, warmup=WARMUP)
            pooled = run_sweep(runner, profiles, ckpt, jobs=jobs,
                               echo=lambda line: None)
        assert pooled == serial
