"""Tests of the benchmark's own arithmetic and its tolerance of a program
that lost a wrapped function.

Run:  python -m pytest perfbench/tests -q
"""

import sys
import types

import pytest

from perfbench import layers, stats
from perfbench.tracing import Span, Tracer, self_times, union_length


class FakeClock:
    """Deterministic clock: each test advances it explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- span self-time arithmetic ------------------------------------------------

def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_children_union_and_leaves():
    parent = Span(1, "harness.run", None, "r", 0.0, 10.0, leaf_s=1.5)
    child_a = Span(2, "cores.ooo.run", 1, "r", 1.0, 4.0)
    child_b = Span(3, "workloads.generate", 1, "r", 3.0, 6.0)  # overlaps a
    grandchild = Span(4, "engine.soa", 2, "r", 2.0, 3.0)
    own = self_times([parent, child_a, child_b, grandchild])
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.5)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_live_wrappers_nest_leaves_under_spans():
    clock = FakeClock()

    class Model:
        def run(self):
            clock.now += 1.0
            self.access()
            self.access()
            clock.now += 1.0

        def access(self):
            clock.now += 0.5
            self.inner()

        def inner(self):
            clock.now += 0.25

    module = types.ModuleType("perfbench_fake_model")
    module.Model = Model
    sys.modules[module.__name__] = module
    tracer = Tracer(clock=clock)
    try:
        assert tracer.wrap("perfbench_fake_model:Model.run", "cores.x.run")
        assert tracer.wrap("perfbench_fake_model:Model.access",
                           "memory.access/Model.access", leaf=True)
        assert tracer.wrap("perfbench_fake_model:Model.inner",
                           "memory.access/Model.inner", leaf=True)
        Model().run()
    finally:
        tracer.unwrap_all()
        del sys.modules[module.__name__]
    assert "__wrapped__" not in vars(Model.run)
    (span,) = tracer.spans
    assert span.duration == pytest.approx(3.5)
    # Nested leaf time is not counted twice: access self excludes inner.
    assert span.leaves["memory.access/Model.access"] == [2, pytest.approx(1.0)]
    assert span.leaves["memory.access/Model.inner"] == [2, pytest.approx(0.5)]
    assert span.leaf_s == pytest.approx(1.5)
    assert self_times(tracer.spans)[span.id] == pytest.approx(2.0)


def test_child_spans_inherit_their_root_run_id():
    tracer = Tracer(clock=FakeClock())
    for _ in range(2):
        root = tracer.open("harness.run")
        child = tracer.open("cores.ino.run")
        tracer.close(child)
        tracer.close(root)
    root_a, child_a, root_b, child_b = tracer.spans
    assert child_a.parent == root_a.id and child_a.run == root_a.run
    assert child_b.parent == root_b.id and child_b.run == root_b.run
    assert root_a.run != root_b.run


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 95) == pytest.approx(95.05)
    assert stats.percentile([], 95) == 0.0


# -- failure accounting -------------------------------------------------------

def test_refused_and_failed_jobs_count_as_attempted_and_over_limit():
    outcomes = [
        {"ok": True, "latency_s": 0.1},
        {"ok": True, "latency_s": 2.0},     # slow but served
        {"ok": False, "latency_s": 0.001},  # refused fast: still over limit
        {"ok": False, "latency_s": None},   # failed, no latency at all
    ]
    counts = stats.failure_counts(outcomes, latency_limit_s=1.0)
    assert counts == {"attempted": 4, "failed": 2, "over_limit": 3,
                      "failed_frac": 0.5}


def test_failure_counts_without_limit():
    counts = stats.failure_counts([{"ok": True}, {"ok": False}])
    assert counts["attempted"] == 2 and counts["failed"] == 1
    assert counts["over_limit"] == 0


# -- fig6_err_pts -------------------------------------------------------------

def test_fig6_err_pts_is_zero_on_the_paper_values():
    geo = {"lsc": 1.28, "freeway": 1.34, "casino": 1.51, "ooo": 1.68}
    assert stats.fig6_err_pts(geo) == pytest.approx(0.0)


def test_fig6_err_pts_mean_absolute_points():
    geo = {"lsc": 1.30, "freeway": 1.30, "casino": 1.51, "ooo": 1.60}
    # |30-28| + |30-34| + 0 + |60-68| = 14 points over four cores.
    assert stats.fig6_err_pts(geo) == pytest.approx(3.5)


def test_fig6_order_violations_name_the_broken_pairs():
    fig6 = {"lsc": {"geomean": 1.30}, "freeway": {"geomean": 1.27},
            "casino": {"a": 1.4, "b": 0.95, "geomean": 1.35},
            "ooo": {"geomean": 1.6}}
    problems = stats.fig6_order_violations(fig6)
    assert len(problems) == 2
    assert problems[0].startswith("geomean lsc")
    assert "on b" in problems[1]


# -- a wrapped function missing in a later commit -----------------------------

def test_missing_targets_are_reported_absent_not_raised():
    tracer = Tracer()
    assert not tracer.wrap("perfbench_no_such_module:Thing.run", "x.run")
    assert not tracer.wrap("perfbench.stats:NoSuchClass.run", "x.run")
    assert not tracer.wrap("perfbench.stats:median_of_nothing", "x.run")
    assert tracer.absent == ["perfbench_no_such_module:Thing.run",
                             "perfbench.stats:NoSuchClass.run",
                             "perfbench.stats:median_of_nothing"]
    tracer.unwrap_all()  # nothing installed, nothing to restore


def test_absent_metrics_follow_their_wrapped_functions():
    memory = [target for target, name in layers.LEAVES
              if name.startswith("memory.access")]
    assert layers.absent_metrics(memory) == ["memory.access_s"]
    # One of two predictor targets left: the metric is still measured.
    assert layers.absent_metrics(
        ["repro.frontend.tage:Tage.predict_update"]) == []
    lost_core = layers.absent_metrics([layers.CORE_RUN])
    assert "cores.casino.kips" in lost_core
    assert "engine.vector_share" in lost_core
    assert "workloads.generate_s" not in lost_core


def test_layer_metrics_read_zero_without_spans():
    values = layers.layer_metrics(Tracer())
    assert values["cores.ooo.runs"] == 0.0
    assert values["harness.result_reuse"] == 0.0
    assert set(values) <= set(layers.PER_LAYER)
