"""Golden digests for the out-of-order family of cores.

``golden_digests.json`` was generated once, from the code before the
in-place rewrite of the ooo, specino, lsc and freeway per-cycle loops,
and is checked in: it must never be regenerated to make this test pass.
Each entry pins, for one (config, app, fast-forward) run of the sweep's
quick suite at the sweep's trace length, the counter digest, a digest of
the recorded schedule and the full cycle-accounting report.  A plain run
with no observers must reproduce the same counter digest, so the path
the sweep takes and the path ``repro explain`` takes are both covered.

To print the table for the current code (for inspection only)::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.common.params import (
    DISAMBIG_NOLQ,
    make_freeway_config,
    make_lsc_config,
    make_ooo_config,
    make_specino_config,
)
from repro.cores import build_core
from repro.obs.accounting import CycleAccounting
from repro.obs.provenance import counter_digest
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.suite import SUITE

GOLDEN = Path(__file__).with_name("golden_digests.json")

QUICK_APPS = ["hmmer", "mcf", "cactusADM", "h264ref", "libquantum",
              "gcc", "bwaves", "milc"]
N_INSTRS = 2_000
WARMUP = 500


def configs():
    """The sweep's ooo-family configs, by name."""
    cfgs = [
        make_ooo_config(),
        make_ooo_config(3),
        make_ooo_config(4),
        dataclasses.replace(make_ooo_config(), name="ooo+nolq",
                            disambiguation=DISAMBIG_NOLQ),
        make_specino_config(2, 1),
        make_specino_config(2, 2),
        make_specino_config(2, 1, mem=False),
        make_specino_config(2, 2, mem=False),
        make_lsc_config(),
        make_freeway_config(),
    ]
    return {cfg.name: cfg for cfg in cfgs}


_TRACES: dict = {}


def _trace(app: str) -> list:
    if app not in _TRACES:
        _TRACES[app] = SyntheticWorkload(SUITE[app]).generate(N_INSTRS)
    return _TRACES[app]


def schedule_digest(schedule) -> str:
    """Digest of a recorded schedule, without the trace records."""
    rows = [[seq, issue, done, commit, bool(from_siq), dispatch]
            for seq, _inst, issue, done, commit, from_siq, dispatch
            in schedule]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def observed_run(cfg, app: str, fast_forward: bool) -> dict:
    """One run with accounting and a recorded schedule attached."""
    core = build_core(cfg)
    acct = CycleAccounting()
    stats = core.run(_trace(app), warmup=WARMUP, record_schedule=True,
                     accounting=acct, fast_forward=fast_forward)
    return {"counters": counter_digest(stats),
            "schedule": schedule_digest(core.schedule),
            "accounting": acct.report()}


def plain_counters(cfg, app: str, fast_forward: bool) -> str:
    stats = build_core(cfg).run(_trace(app), warmup=WARMUP,
                                fast_forward=fast_forward)
    return counter_digest(stats)


def run_key(name: str, app: str, fast_forward: bool) -> str:
    return f"{name}/{app}/ff={'on' if fast_forward else 'off'}"


def compute_all() -> dict:
    out = {}
    for name, cfg in configs().items():
        for app in QUICK_APPS:
            for ff in (True, False):
                out[run_key(name, app, ff)] = observed_run(cfg, app, ff)
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_the_matrix(golden):
    expected = {run_key(name, app, ff) for name in configs()
                for app in QUICK_APPS for ff in (True, False)}
    assert set(golden) == expected


@pytest.mark.parametrize("name", list(configs()))
@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff_on", "ff_off"])
def test_matches_golden(golden, name, fast_forward):
    cfg = configs()[name]
    for app in QUICK_APPS:
        want = golden[run_key(name, app, fast_forward)]
        got = observed_run(cfg, app, fast_forward)
        assert got["counters"] == want["counters"], (name, app)
        assert got["schedule"] == want["schedule"], (name, app)
        # JSON round-trip so float/int and tuple/list compare as stored.
        assert json.loads(json.dumps(got["accounting"])) \
            == want["accounting"], (name, app)
        assert plain_counters(cfg, app, fast_forward) \
            == want["counters"], (name, app)


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=1, sort_keys=True))
