"""Golden digests for the CASINO core's sweep configs.

``golden_digests_casino.json`` was generated once, from the code in which
any attached observer sent a CASINO run down the interpreted loop, so its
accounting reports and recorded schedules are the interpreted tier's.
It is checked in and must never be regenerated to make this test pass.
Each entry pins, for one (config, app, fast-forward) run of the sweep's
quick suite at the sweep's trace length, the counter digest, a digest of
the recorded schedule and the full cycle-accounting report, checked the
same way ``tests/test_golden_digests.py`` checks the out-of-order family.
An observed run (accounting plus a recorded schedule) and a plain run
must both reproduce the pinned counters, whichever tier each one selects.

To print the table for the current code (for inspection only)::

    PYTHONPATH=src:. python tests/test_golden_digests_casino.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common.params import (
    DISAMBIG_AGI_ORDERING,
    DISAMBIG_FULLY_OOO,
    DISAMBIG_NOLQ,
    RENAME_CONVENTIONAL,
    make_casino_config,
)
from repro.experiments.fig10_design_space import IQ_SIZES, WS_SO, _generous
from tests.test_golden_digests import (
    QUICK_APPS,
    observed_run,
    plain_counters,
    run_key,
)

GOLDEN = Path(__file__).with_name("golden_digests_casino.json")


def configs():
    """The sweep's CASINO configs, by name, without timing duplicates
    (``casino[2,1]`` is the default ``casino`` window)."""
    base = make_casino_config()
    cfgs = [base, make_casino_config(3), make_casino_config(4)]
    cfgs += [_generous(dataclasses.replace(base, name=f"casino-iq{size}",
                                           iq_size=size))
             for size in IQ_SIZES]
    cfgs += [dataclasses.replace(base, name=f"casino[{ws},{so}]",
                                 specino_ws=ws, specino_so=so)
             for ws, so in WS_SO
             if (ws, so) != (base.specino_ws, base.specino_so)]
    cfgs += [dataclasses.replace(base, name=mode, disambiguation=mode)
             for mode in (DISAMBIG_NOLQ, DISAMBIG_FULLY_OOO,
                          DISAMBIG_AGI_ORDERING)]
    cfgs.append(dataclasses.replace(base, name="ConV[32,14]",
                                    rename_scheme=RENAME_CONVENTIONAL))
    return {cfg.name: cfg for cfg in cfgs}


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
