"""CPI-stack cycle accounting (repro.obs.accounting).

The load-bearing contracts:

* **identity** — the components sum exactly to the cycle count on every
  core model, kernel traces and synthetic apps alike (S4);
* **read-only** — an accounting-enabled run is bit-identical in simulated
  timing and final counters to a bare run;
* **semantics** — ``iq_head_blocked`` is structurally zero on the OoO
  core, and on memory-bound apps the in-order core's ``load_miss`` +
  ``iq_head_blocked`` cycles cover at least the cycles it loses to OoO
  (the paper's motivating gap);
* **sanitizer** — a mis-attributing observer trips ``check_accounting``.
"""

import pytest

from repro.common.params import (
    make_casino_config,
    make_freeway_config,
    make_ino_config,
    make_lsc_config,
    make_ooo_config,
    make_specino_config,
)
from repro.cores import build_core
from repro.engine.core_base import SimulationError
from repro.obs.accounting import COMPONENTS, CycleAccounting, \
    format_stack_table
from repro.obs.provenance import counter_digest
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.kernels import kernel_trace
from repro.workloads.suite import SUITE
from tests.util import div, with_pcs

ALL_CORES = [make_ino_config, make_lsc_config, make_freeway_config,
             make_casino_config, make_ooo_config, make_specino_config]

KERNELS = [("pointer_chase", {"nodes": 64, "hops": 256}),
           ("daxpy", {"n": 128, "passes": 2}),
           ("histogram", {"n": 256})]

APPS = ["mcf", "hmmer"]


def _app_trace(app, n=2_000):
    return SyntheticWorkload(SUITE[app]).generate(n)


def _run(make_cfg, trace, **kwargs):
    core = build_core(make_cfg())
    acct = CycleAccounting()
    stats = core.run(trace, warm_icache=True, accounting=acct, **kwargs)
    return stats, acct


class TestIdentity:
    """S4: components sum exactly to total cycles, everywhere."""

    @pytest.mark.parametrize("make_cfg", ALL_CORES,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kernel,kwargs", KERNELS,
                             ids=[k for k, _ in KERNELS])
    def test_kernels(self, make_cfg, kernel, kwargs):
        stats, acct = _run(make_cfg, kernel_trace(kernel, **kwargs))
        assert acct.identity_error() is None
        assert sum(acct.components.values()) == acct.total_cycles
        assert acct.total_cycles == int(stats.cycles)

    @pytest.mark.parametrize("make_cfg", ALL_CORES,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("app", APPS)
    def test_synthetic_apps(self, make_cfg, app):
        stats, acct = _run(make_cfg, _app_trace(app))
        assert acct.identity_error() is None
        assert sum(acct.components.values()) == acct.total_cycles

    def test_identity_holds_under_sanitizer_and_warmup(self):
        trace = _app_trace("mcf")
        core = build_core(make_casino_config())
        acct = CycleAccounting()
        stats = core.run(trace, warmup=500, sanitize=True, accounting=acct)
        report = acct.report()
        assert report["identity_error"] is None
        # The report excludes warm-up, mirroring the engine's snapshot.
        assert report["total_cycles"] == int(stats.cycles)
        assert report["committed"] == int(stats.committed)
        assert sum(report["components"].values()) == report["total_cycles"]


class TestReadOnly:
    @pytest.mark.parametrize("make_cfg", ALL_CORES,
                             ids=lambda f: f.__name__)
    def test_timing_bit_identical(self, make_cfg):
        trace = _app_trace("mcf")
        bare = build_core(make_cfg()).run(trace, warm_icache=True)
        observed, _ = _run(make_cfg, trace)
        assert int(observed.cycles) == int(bare.cycles)
        assert counter_digest(observed) == counter_digest(bare)


class TestSemantics:
    def test_ooo_never_head_blocked(self):
        _, acct = _run(make_ooo_config, _app_trace("mcf"))
        assert acct.components["iq_head_blocked"] == 0

    def test_inorder_head_blocked_on_dependent_code(self):
        # A dependent long-latency chain: while each 12-cycle divide
        # executes, the next divide sits unready at the queue head.
        chain = with_pcs([div(1)] + [div(1, (1,)) for _ in range(31)])
        _, acct = _run(make_ino_config, chain)
        assert acct.components["iq_head_blocked"] > 0

    @pytest.mark.parametrize("app", ["mcf", "cactusADM"])
    def test_memory_components_cover_the_ooo_gap(self, app):
        """The accounting must *explain* the in-order/OoO cycle gap:
        memory-side stalls (load_miss + iq_head_blocked) on InO are at
        least the cycles InO loses relative to OoO."""
        trace = _app_trace(app, n=4_000)
        ino_stats, ino_acct = _run(make_ino_config, trace)
        ooo_stats, _ = _run(make_ooo_config, trace)
        gap = int(ino_stats.cycles) - int(ooo_stats.cycles)
        assert gap > 0
        explained = (ino_acct.components["load_miss"]
                     + ino_acct.components["iq_head_blocked"])
        assert explained >= gap

    def test_casino_hides_head_blocking_vs_inorder(self):
        trace = _app_trace("cactusADM", n=4_000)
        _, ino_acct = _run(make_ino_config, trace)
        _, casino_acct = _run(make_casino_config, trace)
        assert (casino_acct.components["iq_head_blocked"]
                < ino_acct.components["iq_head_blocked"])

    def test_report_and_table(self):
        _, acct = _run(make_casino_config, _app_trace("hmmer"))
        report = acct.report()
        assert set(report["cpi_stack"]) == set(COMPONENTS)
        assert report["cpi"] == pytest.approx(
            sum(report["cpi_stack"].values()))
        assert abs(sum(report["fractions"].values()) - 1.0) < 1e-9
        headers, rows = format_stack_table({"casino": report})
        assert headers[0] == "core" and rows[0][0] == "casino"


class TestSanitizerIntegration:
    def test_misattribution_trips_the_sanitizer(self):
        class Broken(CycleAccounting):
            def on_cycle(self, core, cycle, *facts):
                super().on_cycle(core, cycle, *facts)
                if cycle == 100:          # drop a cycle: identity broken
                    self.components["base"] -= 1

        core = build_core(make_ino_config())
        with pytest.raises(SimulationError, match="accounting"):
            core.run(_app_trace("hmmer"), sanitize=True,
                     accounting=Broken())
