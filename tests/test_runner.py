"""Harness: runner memoisation, speedups, tables."""

import dataclasses
import json

import pytest

from repro.common.params import make_casino_config, make_ino_config, make_ooo_config
from repro.experiments import fig7_renaming, fig8_memdisambig, fig10_design_space
from repro.harness.export import jsonable
from repro.harness.resilience import ResilientRunner
from repro.harness.runner import Runner
from repro.harness.tables import format_series, format_table
from repro.workloads import get_profile


class TestRunner:
    def test_run_returns_result(self):
        runner = Runner(n_instrs=2000, warmup=500)
        res = runner.run(make_ino_config(), get_profile("hmmer"))
        assert res.ipc > 0
        assert res.energy.total_j > 0
        assert res.app == "hmmer"

    def test_memoisation_returns_same_object(self):
        runner = Runner(n_instrs=2000, warmup=500)
        a = runner.run(make_ino_config(), get_profile("hmmer"))
        b = runner.run(make_ino_config(), get_profile("hmmer"))
        assert a is b

    def test_different_configs_not_conflated(self):
        runner = Runner(n_instrs=2000, warmup=500)
        a = runner.run(make_ino_config(), get_profile("hmmer"))
        b = runner.run(make_casino_config(), get_profile("hmmer"))
        assert a is not b
        assert a.stats.cycles != b.stats.cycles

    def test_trace_cached_per_profile(self):
        runner = Runner(n_instrs=2000, warmup=500)
        t1 = runner.trace(get_profile("gcc"))
        t2 = runner.trace(get_profile("gcc"))
        assert t1 is t2

    def test_speedups_structure(self):
        runner = Runner(n_instrs=2000, warmup=500)
        profiles = [get_profile("hmmer"), get_profile("milc")]
        out = runner.speedups([make_casino_config(), make_ooo_config()],
                              profiles, make_ino_config())
        assert set(out) == {"casino", "ooo"}
        assert set(out["casino"]) == {"hmmer", "milc"}
        assert all(v > 0 for v in out["casino"].values())

    def test_run_suite(self):
        runner = Runner(n_instrs=2000, warmup=500)
        out = runner.run_suite(make_ino_config(),
                               [get_profile("hmmer"), get_profile("gcc")])
        assert set(out) == {"hmmer", "gcc"}


@pytest.fixture(scope="module")
def aliases():
    return _casino_aliases()


def _casino_aliases():
    """The names under which the sweep's figures ask for the Table I
    CASINO machine (figures 6, 7, 8 and 10b)."""
    ws_so = [cfg for cfg in _figure_cfgs(fig10_design_space.run_ws_so_sweep)
             if cfg.name == "casino[2,1]"]
    return ([make_casino_config()]
            + [cfg for cfg in fig7_renaming.variants()
               if cfg.name == "ConD[32,14]"]
            + [cfg for cfg in fig8_memdisambig.variants()
               if cfg.name == "nolq_osca"]
            + ws_so)


def _figure_cfgs(fig):
    """Every config a figure driver asks its runner for."""
    seen = []

    class Recorder(Runner):
        def run(self, cfg, profile):
            seen.append(cfg)
            return super().run(cfg, profile)

    fig(Recorder(n_instrs=500, warmup=100), [get_profile("hmmer")])
    return seen


class CountingRunner(ResilientRunner):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.simulated = []

    def _simulate(self, cfg, profile):
        self.simulated.append(cfg.name)
        return super()._simulate(cfg, profile)


class NameKeyedRunner(CountingRunner):
    """Reference keying: each config name gets its own cache entry."""

    def _result_key(self, cfg, profile):
        return (cfg.name,) + super()._result_key(cfg, profile)


class TestRenamedConfigs:
    def test_aliases_are_one_machine(self, aliases):
        assert [cfg.name for cfg in aliases] == [
            "casino", "ConD[32,14]", "nolq_osca", "casino[2,1]"]
        base = dataclasses.asdict(aliases[0])
        for cfg in aliases[1:]:
            assert dataclasses.asdict(cfg) == dict(base, name=cfg.name)

    @pytest.mark.parametrize("runner_cls", [Runner, ResilientRunner])
    def test_one_simulation_for_four_names(self, runner_cls, aliases):
        calls = []

        class Counting(runner_cls):
            def _simulate(self, cfg, profile):
                calls.append(cfg.name)
                return super()._simulate(cfg, profile)

        runner = Counting(n_instrs=1000, warmup=250)
        profile = get_profile("hmmer")
        results = [runner.run(cfg, profile) for cfg in aliases]
        assert calls == ["casino"]
        assert [r.core.name for r in results] == [
            "casino", "ConD[32,14]", "nolq_osca", "casino[2,1]"]
        assert all(r.stats is results[0].stats for r in results)
        # Asking again under a name returns that name's badge.
        assert runner.run(aliases[2], profile).core.name \
            == "nolq_osca"

    def test_timing_fields_still_separate_configs(self):
        runner = CountingRunner(n_instrs=1000, warmup=250)
        profile = get_profile("hmmer")
        runner.run(make_casino_config(), profile)
        runner.run(dataclasses.replace(make_casino_config(), iq_size=8),
                   profile)
        assert len(runner.simulated) == 2

    def test_figure_outputs_identical_to_name_keyed_cache(self):
        profiles = [get_profile("hmmer"), get_profile("mcf")]
        figures = (fig7_renaming.run, fig8_memdisambig.run,
                   fig10_design_space.run_ws_so_sweep)
        shared = CountingRunner(n_instrs=1000, warmup=250)
        keyed = NameKeyedRunner(n_instrs=1000, warmup=250)
        for fig in figures:
            assert json.dumps(jsonable(fig(shared, profiles)),
                              sort_keys=True) \
                == json.dumps(jsonable(fig(keyed, profiles)),
                              sort_keys=True)
        assert len(shared.simulated) < len(keyed.simulated)


class TestTraceCacheLRU:
    """S3: the per-runner trace cache is bounded with LRU eviction."""

    def test_cache_bounded_and_evictions_counted(self):
        runner = Runner(n_instrs=500, warmup=100, trace_cache_entries=2)
        for app in ("hmmer", "gcc", "milc"):
            runner.trace(get_profile(app))
        assert len(runner._traces) == 2
        assert runner.trace_evictions == 1

    def test_eviction_is_least_recently_used(self):
        runner = Runner(n_instrs=500, warmup=100, trace_cache_entries=2)
        t_hmmer = runner.trace(get_profile("hmmer"))
        runner.trace(get_profile("gcc"))
        # Touch hmmer so gcc is the LRU entry, then overflow.
        assert runner.trace(get_profile("hmmer")) is t_hmmer
        runner.trace(get_profile("milc"))
        assert runner.trace(get_profile("hmmer")) is t_hmmer  # still cached
        assert runner.trace_evictions == 1

    def test_default_bound(self):
        runner = Runner(n_instrs=500, warmup=100)
        assert runner.trace_cache_entries == Runner.DEFAULT_TRACE_CACHE_ENTRIES
        assert runner.trace_evictions == 0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"],
                            [["a", 1.5], ["longer", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "1.500" in text

    def test_format_table_int_passthrough(self):
        text = format_table(["n"], [[42]])
        assert "42" in text

    def test_format_series(self):
        text = format_series("sweep", {"a": 1.0, "b": 2})
        assert text.startswith("sweep:")
        assert "a=1.000" in text and "b=2" in text
