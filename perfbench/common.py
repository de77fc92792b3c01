"""Pieces every workload shares: the result record, the timed-pass loop,
the set-up probe and the simulation digest."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench import layers
from perfbench.tracing import Tracer

#: Timings are reported in *reference seconds*: host seconds scaled by
#: REFERENCE_S over the reference loop's time measured around the timed
#: work.  Shared hosts change speed by up to ~1.7x within seconds, which
#: raw seconds would report as regressions and gains.
REFERENCE_ITERS = 20_000
REFERENCE_S = 0.004

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run directories (removed when
#: the run ends) and the span files traced runs write.
WORK = ROOT / ".perfbench"


@dataclass
class WorkloadResult:
    """Everything one workload run measured."""

    #: Reference seconds of each untraced pass over the workload's work.
    walls: List[float] = field(default_factory=list)
    #: Host seconds of the same passes.
    raw_walls: List[float] = field(default_factory=list)
    #: Reference seconds of each traced pass (traced runs only).
    traced_walls: List[float] = field(default_factory=list)
    #: One ``{"ok", "latency_s"}`` per job (a figure, an explain, an
    #: HTTP job), in the form :func:`stats.failure_counts` takes.
    outcomes: List[dict] = field(default_factory=list)
    #: Latency a job must meet to count as served in time, if any.
    latency_limit_s: Optional[float] = None
    #: (check name, passed, detail)
    checks: List[tuple] = field(default_factory=list)
    sim_digest: str = ""
    setup_samples: List[float] = field(default_factory=list)
    #: Extra human-readable end-to-end lines: name -> (value, unit, n).
    extra: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer metrics measured outside the tracer (service layer).
    layer_values: Dict[str, float] = field(default_factory=dict)
    #: Diagnostics printed but not gated.
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def job(self, ok: bool, latency_s: Optional[float]) -> None:
        self.outcomes.append({"ok": bool(ok), "latency_s": latency_s})

    @property
    def latencies(self) -> List[float]:
        """Latencies of the jobs that succeeded."""
        return [o["latency_s"] for o in self.outcomes if o["ok"]]


def reference_loop() -> float:
    """Host seconds a fixed pure-Python dict loop takes now (median of
    three runs).  The loop is the benchmark's own code, so no change to
    the program can speed it up."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(REFERENCE_ITERS):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class JobTimer:
    """Times work in reference seconds: the host seconds of each call,
    scaled by the reference loop measured just before and just after
    it, so a change of host speed between calls cancels out."""

    def __init__(self) -> None:
        self.last = reference_loop()
        #: Every reference loop time measured, in order.
        self.samples = [self.last]
        #: Reference seconds per host second of the last timed call.
        self.scale = 1.0

    def time(self, fn, *args):
        """``(fn(*args), reference seconds, host seconds)``."""
        before = self.last
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            host = time.perf_counter() - start
            self.last = reference_loop()
            self.samples.append(self.last)
            self.scale = 2 * REFERENCE_S / (before + self.last)
        return out, host * self.scale, host

    @property
    def run_scale(self) -> float:
        """Reference seconds per host second over every call so far.

        For work done in other processes (``service-dse``): the loop in
        this process, just around one call, tracked the speed of the
        server and its workers worse than no scaling at all, while the
        median over the run still takes out host speed changes from one
        run to the next.
        """
        return REFERENCE_S / statistics.median(self.samples)


def setup_samples(probe: Callable[[], float], n: int) -> List[float]:
    """``n`` runs of a set-up probe (returning host seconds), each in
    reference seconds."""
    timer = JobTimer()
    samples = []
    for _ in range(n):
        elapsed, ref, host = timer.time(probe)
        samples.append(elapsed * ref / host)
    return samples


def digest(payload) -> str:
    """Short stable digest of JSON-able simulated output."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def import_probe(modules: List[str]) -> float:
    """Host seconds from starting a fresh interpreter to it having
    imported ``modules`` (missing ones are skipped, so a later commit
    that deletes one still measures)."""
    code = ("import importlib\n"
            f"for name in {modules!r}:\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except ImportError:\n"
            "        pass\n"
            "print('ready', flush=True)\n")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def timed_passes(run_pass: Callable[[int, Optional[Tracer]], tuple],
                 seconds: float, result: WorkloadResult,
                 tracer: Optional[Tracer]) -> None:
    """Repeat ``run_pass(index, tracer)`` while another pass of the
    median length still fits in ``seconds``.  A pass returns its
    (reference seconds, host seconds).

    Untraced runs time every pass with tracing off.  Traced runs time
    one untraced pass first (the overhead baseline), then install the
    layer wrappers and time traced passes; at least one of each runs.
    Each traced pass is one root span, so layer self times can be
    checked against the traced wall.
    """
    start = time.perf_counter()
    index = 0
    try:
        while True:
            traced = tracer is not None and index >= 1
            if traced and index == 1:
                layers.install(tracer)
            span = tracer.open("bench.pass") if traced else None
            t0 = time.perf_counter()
            try:
                wall, host = run_pass(index, tracer if traced else None)
            finally:
                if span is not None:
                    tracer.close(span)
            if traced:
                result.traced_walls.append(wall)
            else:
                result.walls.append(wall)
                result.raw_walls.append(host)
            pass_s = time.perf_counter() - t0
            index += 1
            if tracer is not None and not result.traced_walls:
                continue
            if time.perf_counter() - start + pass_s > seconds:
                break
    finally:
        if tracer is not None:
            tracer.unwrap_all()
