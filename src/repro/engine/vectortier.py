"""Vector-tier selection: which cores get a kernelized run loop, and when.

The vectorized engine tier replaces :meth:`CoreModel.run`'s interpreted
cycle loop with a per-core *kernel* — one flat function with hoisted
structure state and bulk counter accumulation (see
:mod:`repro.engine.fastino` / :mod:`repro.engine.fastcasino`).  Kernels are
bit-identical to the interpreted path; selection is therefore purely a
host-performance decision and follows three rules:

1. **Exact type match.**  A kernel registered for ``InOrderCore`` never
   runs for a subclass: subclasses override stage methods (tests and the
   TSO example both do) and the kernel would silently bypass them.
2. **Observers force the pure tier, unless the kernel hosts them.**
   Faults mutate state on arbitrary cycles; the sanitizer and sampler
   observe every cycle; the tracer hooks dispatch/issue/commit; the
   profiler wraps the very methods the kernel inlines away.  Any of them
   attached selects the interpreted path — exactly like quiescence
   skipping disables itself today.  Cycle accounting is the exception
   for CASINO: its kernel calls the same :class:`~repro.obs.accounting.
   CycleAccounting` hooks at the same point of the cycle as the
   interpreted loop, so an accounted CASINO run stays on the vector tier
   (the InO kernel keeps its in-flight state as sequence numbers, with
   no entries to classify, so accounting still forces InO pure).
   ``record_schedule`` and fast-forward (on or off) are supported inside
   kernels.
3. **`REPRO_PURE_PY=1` disables the tier globally** (the CI fallback leg),
   and ``run(engine_tier=...)`` overrides per call: ``"pure"`` forces the
   interpreted loop, ``"vector"`` demands a kernel and raises
   ``SimulationError`` when rule 1 or 2 makes that impossible (the bench
   harness uses this so a silently-disengaged tier can never pass for a
   speedup), ``None`` auto-selects.

After every :meth:`run`, ``core.engine_tier_used`` records the tier that
actually executed (``"vector"`` or ``"pure"``).
"""

from __future__ import annotations

import os
from typing import Callable, Collection, Dict, FrozenSet, Optional, Type

from repro.engine.core_base import SimulationError

#: Exact core type -> kernel(core, arrays, max_cycles, watchdog, warmup,
#: skip_ok) returning (final_cycle, warm_snapshot, warm_cycle).
_KERNELS: Dict[Type, Callable] = {}

#: Exact core type -> names of the observers its kernel hosts (see
#: ``CoreModel.run`` for the names).
_HOSTED: Dict[Type, FrozenSet[str]] = {}


def register_kernel(core_type: Type, kernel: Callable,
                    hosts: Collection[str] = ()) -> None:
    """Register ``kernel`` as ``core_type``'s vector-tier run loop; it
    stays selected when only the observers named in ``hosts`` attach."""
    _KERNELS[core_type] = kernel
    _HOSTED[core_type] = frozenset(hosts)


def kernel_for(core_type: Type) -> Optional[Callable]:
    """The registered kernel for exactly ``core_type`` (never subclasses)."""
    _ensure_registered()
    return _KERNELS.get(core_type)


def _ensure_registered() -> None:
    # Kernels live next to the cores they accelerate; import them lazily so
    # `engine` stays import-cycle-free (cores import core_base).
    if _KERNELS:
        return
    from repro.cores.inorder import InOrderCore
    from repro.engine import fastino
    register_kernel(InOrderCore, fastino.run_inorder)
    try:
        from repro.cores.casino.core import CasinoCore
        from repro.engine import fastcasino
        register_kernel(CasinoCore, fastcasino.run_casino,
                        hosts=("accounting",))
    except ImportError:  # pragma: no cover - partial checkouts only
        pass


def select_kernel(core, engine_tier: Optional[str],
                  observers: Collection[str] = ()) -> Optional[Callable]:
    """Resolve the kernel to run ``core`` with, or ``None`` for pure.

    ``engine_tier`` is the ``run()`` argument (``None`` auto, ``"pure"``,
    ``"vector"``); ``observers`` names the observers armed for this run.
    """
    if engine_tier not in (None, "pure", "vector"):
        raise ValueError(f"unknown engine_tier {engine_tier!r}")
    if engine_tier == "pure":
        return None
    forced = engine_tier == "vector"
    if not forced and os.environ.get("REPRO_PURE_PY", "0") == "1":
        return None
    kernel = kernel_for(type(core))
    blocking = (sorted(set(observers) - _HOSTED[type(core)])
                if kernel is not None else [])
    if kernel is None or blocking:
        if forced:
            reason = (f"an attached observer ({', '.join(blocking)}) "
                      "forces the pure tier"
                      if kernel is not None else
                      f"no kernel registered for {type(core).__name__}")
            raise SimulationError(
                f"{core.cfg.name}: engine_tier='vector' but {reason}",
                core=core.cfg.name, check="engine_tier")
        return None
    return kernel
