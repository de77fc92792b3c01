"""The vectorized engine tier against the interpreted reference.

The tier's whole contract is *bit-identity*: same cycle counts, same
counter values and key sets, same schedules, same post-run structure
state — the kernel is purely a host-performance artifact.  This module
pins that contract across the kernelized cores, the auto-fallback
cores, the observer matrix, the ``REPRO_PURE_PY`` escape hatch, the
binary trace codec, and the ``__slots__`` layout of the hot
per-instruction classes.
"""

import dataclasses
import pickle

import pytest

from repro.common.params import (
    DISAMBIG_AGI_ORDERING,
    DISAMBIG_FULLY_OOO,
    DISAMBIG_NOLQ,
    make_casino_config,
    make_freeway_config,
    make_ino_config,
    make_lsc_config,
    make_ooo_config,
    make_specino_config,
)
from repro.cores import build_core
from repro.engine.core_base import SimulationError
from repro.engine.soatrace import (
    TraceArrays,
    TraceCodecError,
    decode_trace,
    encode_trace,
)
from repro.obs.accounting import CycleAccounting
from repro.obs.provenance import counter_digest
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.kernels import daxpy_program, pointer_chase_program
from repro.workloads.suite import SUITE

N, WARMUP = 5_000, 800

_TRACES = {}


def _trace(app, n=N, seed=None):
    key = (app, n, seed)
    if key not in _TRACES:
        profile = SUITE[app]
        if seed is not None:
            profile = dataclasses.replace(profile, seed=seed)
        _TRACES[key] = SyntheticWorkload(profile).generate(n)
    return _TRACES[key]


def _run(cfg, trace, tier, ff, **kw):
    core = build_core(cfg)
    stats = core.run(trace, warmup=WARMUP, engine_tier=tier,
                     fast_forward=ff, record_schedule=True, **kw)
    return core, stats


def _assert_identical(cfg, trace, ff, expect_vector=True):
    """Pure vs vector run: every observable must match.

    Kernelized cores force ``engine_tier="vector"`` (which overrides
    ``REPRO_PURE_PY``, so the identity matrix still bites on the
    pure-py CI leg); fallback cores auto-select and must land pure.
    """
    pure_core, pure_stats = _run(cfg, trace, "pure", ff)
    auto_core, auto_stats = _run(cfg, trace,
                                 "vector" if expect_vector else None, ff)
    assert auto_core.engine_tier_used == (
        "vector" if expect_vector else "pure")
    pure_dict, auto_dict = pure_stats.as_dict(), auto_stats.as_dict()
    assert pure_dict == auto_dict, {
        k: (pure_dict.get(k), auto_dict.get(k))
        for k in set(pure_dict) | set(auto_dict)
        if pure_dict.get(k) != auto_dict.get(k)}
    assert counter_digest(pure_stats) == counter_digest(auto_stats)
    assert (pure_core.cycle, pure_core._committed, pure_core.ff_spans,
            pure_core.ff_skipped_cycles) == \
           (auto_core.cycle, auto_core._committed, auto_core.ff_spans,
            auto_core.ff_skipped_cycles)
    # Schedules: identical up to the DynInst column (shared objects).
    assert [(r[0],) + tuple(r[2:]) for r in pure_core.schedule] == \
           [(r[0],) + tuple(r[2:]) for r in auto_core.schedule]
    assert pure_core.stream.cursor == auto_core.stream.cursor
    assert pure_core.fetch.stalled_until == auto_core.fetch.stalled_until
    assert len(pure_core.fetch.queue) == len(auto_core.fetch.queue)


KERNEL_CORES = {"ino": make_ino_config, "casino": make_casino_config}
FALLBACK_CORES = {"ooo": make_ooo_config, "lsc": make_lsc_config,
                  "freeway": make_freeway_config,
                  "specino": make_specino_config}


class TestKernelBitIdentity:
    @pytest.mark.parametrize("ff", [True, False],
                             ids=["skip", "noskip"])
    @pytest.mark.parametrize("app", ["mcf", "hmmer", "libquantum",
                                     "omnetpp"])
    @pytest.mark.parametrize("core", sorted(KERNEL_CORES))
    def test_suite_apps(self, core, app, ff):
        _assert_identical(KERNEL_CORES[core](), _trace(app), ff)

    @pytest.mark.parametrize("mode", [DISAMBIG_NOLQ, DISAMBIG_FULLY_OOO,
                                      DISAMBIG_AGI_ORDERING])
    def test_casino_disambiguation_modes(self, mode):
        cfg = dataclasses.replace(make_casino_config(),
                                  name=f"casino-{mode}",
                                  disambiguation=mode)
        _assert_identical(cfg, _trace("mcf"), True)

    @pytest.mark.parametrize("maker", [pointer_chase_program,
                                       daxpy_program])
    def test_emulated_kernel_traces(self, maker):
        """Hand-written assembly kernels through the functional
        emulator drive both tiers identically (dependency-dense traces
        with shapes the synthetic generator never emits)."""
        from repro.isa.emulator import trace_program
        program, init = maker()
        trace = trace_program(program, init)
        for cfg in (make_ino_config(), make_casino_config()):
            _assert_identical(cfg, trace, True)

    def test_trace_arrays_input_accepted(self):
        """run() accepts the SoA twin directly in place of a list."""
        trace = _trace("hmmer")
        arrays = TraceArrays.from_instructions(trace)
        cfg = make_casino_config()
        base = build_core(cfg).run(trace, warmup=WARMUP)
        via_arrays = build_core(cfg).run(arrays, warmup=WARMUP)
        assert counter_digest(base) == counter_digest(via_arrays)


def _accounted(cfg, trace, tier, ff, record):
    core = build_core(cfg)
    acct = CycleAccounting()
    stats = core.run(trace, warmup=WARMUP, engine_tier=tier,
                     fast_forward=ff, record_schedule=record,
                     accounting=acct)
    return core, stats, acct.report()


class TestAccountingInKernel:
    """CASINO's kernel hosts cycle accounting: the CPI stack, counters
    and schedule of an accounted vector run equal the interpreted
    loop's."""

    @pytest.mark.parametrize("record", [True, False],
                             ids=["schedule", "noschedule"])
    @pytest.mark.parametrize("ff", [True, False], ids=["skip", "noskip"])
    @pytest.mark.parametrize("mode", [DISAMBIG_NOLQ, DISAMBIG_FULLY_OOO,
                                      DISAMBIG_AGI_ORDERING])
    @pytest.mark.parametrize("app", ["mcf", "hmmer", "libquantum",
                                     "omnetpp"])
    def test_report_identical_to_pure(self, app, mode, ff, record):
        cfg = dataclasses.replace(make_casino_config(),
                                  name=f"casino-{mode}",
                                  disambiguation=mode)
        trace = _trace(app, n=3_000)
        pure_core, pure_stats, pure_report = _accounted(
            cfg, trace, "pure", ff, record)
        vec_core, vec_stats, vec_report = _accounted(
            cfg, trace, "vector", ff, record)
        assert vec_core.engine_tier_used == "vector"
        assert vec_report == pure_report
        assert vec_report["identity_error"] is None
        assert vec_stats.as_dict() == pure_stats.as_dict()
        if record:
            assert [(r[0],) + tuple(r[2:]) for r in vec_core.schedule] == \
                   [(r[0],) + tuple(r[2:]) for r in pure_core.schedule]

    def test_auto_selects_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_PURE_PY", raising=False)
        core = build_core(make_casino_config())
        core.run(_trace("hmmer"), warmup=WARMUP, record_schedule=True,
                 accounting=CycleAccounting())
        assert core.engine_tier_used == "vector"

    def test_casino_subclass_stays_pure(self, monkeypatch):
        from repro.cores.casino.core import CasinoCore

        class Sub(CasinoCore):
            pass

        monkeypatch.delenv("REPRO_PURE_PY", raising=False)
        core = Sub(make_casino_config())
        core.run(_trace("hmmer"), warmup=WARMUP,
                 accounting=CycleAccounting())
        assert core.engine_tier_used == "pure"

    def test_inorder_with_accounting_stays_pure(self, monkeypatch):
        monkeypatch.delenv("REPRO_PURE_PY", raising=False)
        core = build_core(make_ino_config())
        core.run(_trace("hmmer"), warmup=WARMUP,
                 accounting=CycleAccounting())
        assert core.engine_tier_used == "pure"
        with pytest.raises(SimulationError, match="accounting"):
            build_core(make_ino_config()).run(
                _trace("hmmer"), warmup=WARMUP,
                accounting=CycleAccounting(), engine_tier="vector")

    def test_other_observers_still_force_pure(self):
        from repro.obs.events import Tracer
        with pytest.raises(SimulationError, match="tracer"):
            build_core(make_casino_config()).run(
                _trace("hmmer"), warmup=WARMUP, tracer=Tracer(),
                accounting=CycleAccounting(), engine_tier="vector")


class TestTraceOwnership:
    """The SoA twin belongs to whoever owns the trace: no module-level
    cache pins traces that callers have dropped."""

    def test_conversion_keeps_the_source_objects(self):
        trace = _trace("mcf", n=600)
        assert TraceArrays.from_instructions(trace).materialize() is trace

    def test_runner_converts_each_cached_trace_once(self):
        from repro.harness.runner import Runner
        runner = Runner(n_instrs=1_000, warmup=200)
        profile = SUITE["hmmer"]
        arrays = runner.trace_arrays(profile)
        assert runner.trace_arrays(profile) is arrays
        assert arrays.materialize() is runner.trace(profile)
        runner.run(make_casino_config(), profile)
        runner.run(make_ooo_config(), profile)
        assert runner.trace_arrays(profile) is arrays

    def test_bare_list_is_not_pinned(self, monkeypatch):
        """A list passed to run() is converted for that call only."""
        import gc
        import sys
        monkeypatch.delenv("REPRO_PURE_PY", raising=False)
        trace = SyntheticWorkload(SUITE["mcf"]).generate(600)
        before = sys.getrefcount(trace)
        core = build_core(make_casino_config())
        core.run(trace, warmup=100)
        assert core.engine_tier_used == "vector"
        del core
        gc.collect()
        assert sys.getrefcount(trace) == before


class TestTierSelection:
    def test_fallback_cores_stay_pure_and_identical(self):
        trace = _trace("mcf", n=3_000)
        for name, factory in FALLBACK_CORES.items():
            _assert_identical(factory(), trace, True,
                              expect_vector=False)

    def test_forcing_vector_without_kernel_raises(self):
        with pytest.raises(SimulationError, match="engine_tier"):
            build_core(make_ooo_config()).run(
                _trace("mcf", n=3_000), warmup=WARMUP,
                engine_tier="vector")

    def test_observer_forces_clean_fallback(self):
        core = build_core(make_casino_config())
        core.run(_trace("hmmer"), warmup=WARMUP, sanitize=True)
        assert core.engine_tier_used == "pure"

    def test_forcing_vector_with_observer_raises(self):
        with pytest.raises(SimulationError, match="engine_tier"):
            build_core(make_casino_config()).run(
                _trace("hmmer"), warmup=WARMUP, sanitize=True,
                engine_tier="vector")

    def test_pure_py_env_disables_auto_but_not_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_PURE_PY", "1")
        trace = _trace("hmmer")
        core = build_core(make_casino_config())
        core.run(trace, warmup=WARMUP)
        assert core.engine_tier_used == "pure"
        forced = build_core(make_casino_config())
        forced.run(trace, warmup=WARMUP, engine_tier="vector")
        assert forced.engine_tier_used == "vector"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="engine_tier"):
            build_core(make_ino_config()).run(
                _trace("hmmer"), warmup=WARMUP, engine_tier="jit")


class TestTraceCodec:
    @pytest.mark.parametrize("seed_shift", [0, 17])
    @pytest.mark.parametrize("app", sorted(SUITE))
    def test_roundtrip_every_suite_app(self, app, seed_shift):
        seed = SUITE[app].seed + seed_shift
        trace = _trace(app, n=1_200, seed=seed)
        key = f"{app}-{seed}"
        served = decode_trace(encode_trace(trace, key), key)
        assert len(served) == len(trace)
        for a, b in zip(trace, served):
            assert (a.seq, a.pc, a.op, a.srcs, a.dst, a.mem_addr,
                    a.mem_size, a.taken, a.target) == \
                   (b.seq, b.pc, b.op, b.srcs, b.dst, b.mem_addr,
                    b.mem_size, b.taken, b.target)
        # And a re-encode is byte-identical (canonical container).
        assert encode_trace(served, key) == encode_trace(trace, key)

    def test_malformed_containers_raise_codec_error(self):
        trace = _trace("mcf", n=600)
        raw = encode_trace(trace, "k1")
        for mutant in (b"", b"XXXX" + raw[4:],        # magic
                       raw[:40], raw[:-3],            # truncations
                       raw[:-3] + bytes(3),           # payload bit-rot
                       raw + b"\x00"):                # trailing garbage
            with pytest.raises(TraceCodecError):
                decode_trace(mutant, "k1")
        with pytest.raises(TraceCodecError):
            decode_trace(raw, "other-key")

    def test_store_quarantines_corrupt_binary_entry(self, tmp_path):
        from repro.service.store import TraceStore, trace_key
        profile = SUITE["mcf"]
        store = TraceStore(tmp_path / "traces")
        store.put(profile, 600, _trace("mcf", n=600))
        key = trace_key(profile, 600)
        path = store._path(key)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF                      # flip one payload byte
        path.write_bytes(bytes(raw))
        assert store.get(profile, 600) is None   # no crash
        assert not path.exists()                 # moved, not served
        assert (tmp_path / "traces" / "quarantine" / path.name).exists()
        assert store.stats["corrupt"] == 1
        assert store.stats["quarantined"] == 1
        # A regenerated entry serves normally afterwards.
        store.put(profile, 600, _trace("mcf", n=600))
        assert store.get(profile, 600) is not None

    def test_store_quarantines_truncated_header(self, tmp_path):
        from repro.service.store import TraceStore, trace_key
        profile = SUITE["hmmer"]
        store = TraceStore(tmp_path / "traces")
        store.put(profile, 600, _trace("hmmer", n=600))
        path = store._path(trace_key(profile, 600))
        path.write_bytes(path.read_bytes()[:16])
        assert store.get(profile, 600) is None
        assert store.stats["quarantined"] == 1


class TestSlotsPins:
    """The hot per-instruction classes must stay ``__dict__``-free (the
    vector tier's memory story) while remaining picklable (the pool
    protocol) and codec-round-trippable (the TraceStore wire)."""

    def test_hot_classes_have_no_dict(self):
        from repro.engine.core_base import InflightInst
        from repro.isa.opcodes import OpClass
        from repro.workloads.generator import _Block, _MemStream, _Slot
        inst = _trace("mcf", n=10)[0]
        samples = [inst, InflightInst(inst, []),
                   _MemStream(kind="seq", base=0, span=64),
                   _Slot(pc=0, op=OpClass.INT_ALU), _Block(pc=0)]
        for obj in samples:
            assert not hasattr(obj, "__dict__"), type(obj)
            with pytest.raises(AttributeError):
                obj.not_a_slot = 1

    def test_dyninst_pickles_and_codec_roundtrips(self, tmp_path):
        from repro.service.store import TraceStore
        trace = _trace("mcf", n=300)
        clone = pickle.loads(pickle.dumps(trace[0]))
        assert (clone.seq, clone.pc, clone.op, clone.srcs,
                clone.dst) == (trace[0].seq, trace[0].pc, trace[0].op,
                               trace[0].srcs, trace[0].dst)
        store = TraceStore(tmp_path / "traces")
        store.put(SUITE["mcf"], 300, trace)
        served = store.get(SUITE["mcf"], 300)
        assert [i.seq for i in served] == [i.seq for i in trace]
