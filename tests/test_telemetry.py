"""Telemetry plane: registry concurrency, lossless merge, Prometheus
text, span lifecycle across crash/restart, and bit-identical results
with telemetry on or off."""

import json
import logging
import threading
import time

import pytest

from repro.common.params import make_casino_config, make_ino_config
from repro.obs.telemetry import (
    MetricsRegistry,
    SpanLog,
    TERMINAL_SPAN_EVENTS,
    JsonLineFormatter,
    fold_spans,
    merge_snapshots,
    new_trace_id,
    render_prometheus,
)
from tests.chaos import ChaosFabric, assert_invariant, serial_digests
from repro.service.jobs import JobSpec, execute_job
from repro.service.pool import SimulationPool
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

N, WARMUP = 1200, 200


def _specs(pairs, n=N, warmup=WARMUP):
    factories = {"ino": make_ino_config, "casino": make_casino_config}
    return [JobSpec.make(factories[core](), SUITE[app],
                         n_instrs=n, warmup=warmup)
            for core, app in pairs]


def _series(snapshot, name, **labels):
    for entry in snapshot["series"]:
        if entry["name"] == name and entry["labels"] == {
                k: str(v) for k, v in labels.items()}:
            return entry
    raise AssertionError(f"no series {name} {labels} in {snapshot}")


class TestRegistryConcurrency:
    def test_concurrent_increments_lossless(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2_000

        def hammer(i):
            shared = registry.counter("repro_test_total")
            mine = registry.counter("repro_test_by_thread_total", thread=i)
            for _ in range(per_thread):
                shared.inc()
                mine.inc()

        workers = [threading.Thread(target=hammer, args=(i,))
                   for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        snap = registry.snapshot()
        assert _series(snap, "repro_test_total")["value"] == \
            threads * per_thread
        for i in range(threads):
            assert _series(snap, "repro_test_by_thread_total",
                           thread=i)["value"] == per_thread

    def test_histogram_bucket_counts_match_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds",
                                  buckets=(0.01, 0.1, 1.0))
        observations = 0

        def observe(seed):
            nonlocal observations
            value = 0.0003
            for _ in range(1_500):
                value = (value * 31 + seed * 0.0107) % 2.0
                hist.observe(value)

        workers = [threading.Thread(target=observe, args=(i + 1,))
                   for i in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        entry = _series(registry.snapshot(), "repro_test_seconds")
        # invariant: every observation lands in exactly one bucket
        assert sum(entry["counts"]) == entry["count"] == 6 * 1_500
        assert len(entry["counts"]) == len(entry["buckets"]) + 1

    def test_snapshot_is_consistent_under_writes(self):
        """A snapshot taken mid-hammer never shows a torn series."""
        registry = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            a = registry.counter("repro_test_a_total")
            b = registry.counter("repro_test_b_total")
            while not stop.is_set():
                a.inc()
                b.inc()  # maintained invariant: a >= b, a - b <= writers

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in workers:
            t.start()
        try:
            for _ in range(50):
                snap = registry.snapshot()
                a = _series(snap, "repro_test_a_total")["value"]
                b = _series(snap, "repro_test_b_total")["value"]
                assert 0 <= a - b <= len(workers)
        finally:
            stop.set()
            for t in workers:
                t.join()

    def test_kind_is_sticky_per_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total")


class TestMerge:
    def test_merge_of_cumulative_worker_snapshots_is_lossless(self):
        """Per-worker registries are cumulative, so summing the latest
        snapshot from each worker counts every increment exactly once —
        the parent-side merge model for pool telemetry."""
        workers = [MetricsRegistry() for _ in range(3)]
        for i, registry in enumerate(workers):
            for _ in range((i + 1) * 10):
                registry.counter("repro_jobs_total", outcome="ok").inc()
                registry.histogram("repro_sim_seconds",
                                   buckets=(0.1, 1.0)).observe(0.05 * (i + 1))
        merged = merge_snapshots([r.snapshot() for r in workers])
        assert _series(merged, "repro_jobs_total",
                       outcome="ok")["value"] == 60
        hist = _series(merged, "repro_sim_seconds")
        assert hist["count"] == 60 and sum(hist["counts"]) == 60

    def test_merge_skips_missing_workers(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(5)
        merged = merge_snapshots([None, registry.snapshot(), {}])
        assert _series(merged, "repro_test_total")["value"] == 5

    def test_histogram_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("repro_test_seconds", buckets=(0.1, 1.0)).observe(0.5)
        b.histogram("repro_test_seconds", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])


def _parse_prometheus(text):
    """Mini exposition-format parser: {family: {"type", "samples"}}.

    Raises on malformed lines, duplicate TYPE headers, or samples for an
    undeclared family — the validity contract ``GET /metrics`` promises.
    """
    families = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = {"type": kind, "samples": []}
            continue
        assert not line.startswith("#"), line
        head, _, value = line.rpartition(" ")
        float(value)  # must parse
        name = head.split("{", 1)[0]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                family = name[:-len(suffix)]
        assert family in families, f"sample for undeclared family: {line}"
        families[family]["samples"].append((head, float(value)))
    return families


class TestPrometheusText:
    def test_render_is_valid_exposition_text(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs by status",
                         status="done").inc(3)
        registry.counter("repro_jobs_total", status="failed").inc()
        registry.gauge("repro_queue_depth", "Queued jobs").set(7)
        hist = registry.histogram("repro_wait_seconds", "Queue wait",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        families = _parse_prometheus(text)
        assert families["repro_jobs_total"]["type"] == "counter"
        assert families["repro_queue_depth"]["type"] == "gauge"
        assert families["repro_wait_seconds"]["type"] == "histogram"
        samples = dict(families["repro_wait_seconds"]["samples"])
        # cumulative buckets: monotone, +Inf equals _count
        assert samples['repro_wait_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_wait_seconds_bucket{le="1"}'] == 2
        assert samples['repro_wait_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_wait_seconds_count"] == 3
        assert samples["repro_wait_seconds_sum"] == pytest.approx(5.55)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", error='say "hi"\n').inc()
        text = render_prometheus(registry.snapshot())
        assert r'error="say \"hi\"\n"' in text


class TestSpanLog:
    def test_second_terminal_event_suppressed(self):
        log = SpanLog()
        trace = new_trace_id()
        assert log.append("job-1", "submitted", trace=trace) is not None
        assert log.append("job-1", "completed") is not None
        assert log.append("job-1", "failed") is None        # suppressed
        span = log.trace("job-1")
        assert span["complete"] is True
        terminals = [e for e in span["events"]
                     if e["ev"] in TERMINAL_SPAN_EVENTS]
        assert len(terminals) == 1 and terminals[0]["ev"] == "completed"

    def test_fold_spans_synthesises_lifecycle_events(self):
        records = [
            {"t": "submitted", "job": "job-1", "ts": 10.0, "trace": "tr-1",
             "priority": 100},
            {"t": "leased", "job": "job-1", "ts": 11.0, "attempt": 1},
            {"t": "span", "job": "job-1", "ts": 11.5, "ev": "started",
             "pid": 42},
            {"t": "done", "job": "job-1", "ts": 12.0},
            {"t": "submitted", "job": "job-2", "ts": 13.0, "trace": "tr-2",
             "cached": True},
        ]
        log = fold_spans(records)
        one = log.trace("job-1")
        assert one["trace"] == "tr-1" and one["complete"]
        assert [e["ev"] for e in one["events"]] == \
            ["submitted", "journaled", "leased", "started", "completed"]
        two = log.trace("job-2")
        assert [e["ev"] for e in two["events"]] == \
            ["submitted", "journaled", "store_hit", "completed"]

    def test_fold_spans_skips_schema1_records(self):
        """Old journals (no ``ts`` on lifecycle records) stay readable
        but contribute no span history."""
        log = fold_spans([{"t": "submitted", "job": "job-1"},
                          {"t": "done", "job": "job-1"}])
        assert len(log) == 0

    def test_replaying_the_same_records_adds_no_terminals(self):
        records = [{"t": "submitted", "job": "job-1", "ts": 1.0,
                    "trace": "tr", "cached": True}]
        log = fold_spans(records)
        log = fold_spans(records, log)  # crash-recovery double replay
        terminals = [e for e in log.trace("job-1")["events"]
                     if e["ev"] in TERMINAL_SPAN_EVENTS]
        assert len(terminals) == 1


class TestJsonLogging:
    def test_formatter_emits_one_json_object_with_fields(self):
        record = logging.LogRecord(
            name="repro.service.server", level=logging.INFO, pathname=__file__,
            lineno=1, msg="service.terminal", args=(), exc_info=None)
        record.fields = {"job": "job-1", "trace": "tr-1", "status": "done"}
        doc = json.loads(JsonLineFormatter().format(record))
        assert doc["event"] == "service.terminal"
        assert doc["logger"] == "repro.service.server"
        assert doc["job"] == "job-1" and doc["trace"] == "tr-1"
        assert doc["level"] == "info" and doc["ts"] > 0


class TestBitIdentity:
    def test_records_identical_with_telemetry_on_or_off(self):
        """Acceptance: the telemetry plane observes the fabric, never the
        simulation — result records (counter digests included) are
        byte-identical with telemetry enabled or disabled."""
        specs = _specs([("ino", "hmmer"), ("casino", "mcf")])
        serial = [execute_job(spec) for spec in specs]
        with SimulationPool(n_workers=2, telemetry=True) as pool_on:
            with_telemetry = pool_on.run_batch(specs)
            worker_snaps = pool_on.telemetry_snapshots()
        with SimulationPool(n_workers=2, telemetry=False) as pool_off:
            without_telemetry = pool_off.run_batch(specs)
        for ser, on, off in zip(serial, with_telemetry, without_telemetry):
            assert json.dumps(ser, sort_keys=True) == \
                json.dumps(on, sort_keys=True) == \
                json.dumps(off, sort_keys=True)
            assert ser["manifest"]["counter_digest"] == \
                on["manifest"]["counter_digest"]
        # and the workers did report: every job shows up in the merge
        merged = merge_snapshots(worker_snaps)
        assert _series(merged, "repro_worker_jobs_total",
                       outcome="ok")["value"] == len(specs)


class TestCrashRecoverySpans:
    def test_crash_mid_batch_replays_spans_without_duplicate_terminals(
            self, tmp_path):
        """Acceptance: after a crash + restart, every job's span is
        rebuilt from the journal, ends complete, and holds exactly one
        terminal event — replay never doubles a terminal transition."""
        specs = _specs([("ino", "hmmer"), ("casino", "hmmer"),
                        ("ino", "mcf")])
        expected = serial_digests(specs)
        fabric = ChaosFabric(tmp_path, workers=2, seed=808)
        fabric.start()
        try:
            fabric.submit(specs)
            deadline = time.monotonic() + 120.0
            while len(ResultStore(tmp_path / "store")) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            fabric.crash()

            fabric.start()
            fabric.ensure_submitted(specs)
            entries = fabric.wait_all(timeout_s=300.0)
            traces = {job_id: fabric.service.job_trace(job_id)
                      for job_id in entries}
        finally:
            fabric.stop()
        assert_invariant(entries, fabric.store, specs, expected)
        assert len(traces) == len(specs)
        for job_id, span in traces.items():
            assert span is not None, job_id
            assert span["complete"] is True, span
            events = [e["ev"] for e in span["events"]]
            assert events[0] == "submitted", events
            terminals = [ev for ev in events if ev in TERMINAL_SPAN_EVENTS]
            assert terminals == ["completed"], events

    def test_recovered_store_dedup_span_is_terminal_and_cached(self,
                                                               tmp_path):
        """A job whose result landed before the crash is cache-served on
        recovery; its replayed span closes with a single recovered
        ``completed`` event instead of re-running."""
        specs = _specs([("ino", "hmmer")])
        fabric = ChaosFabric(tmp_path, workers=1, seed=909)
        fabric.start()
        try:
            (job_id,) = fabric.submit(specs)
            fabric.wait_all(timeout_s=300.0)
            fabric.restart()
            span = fabric.service.job_trace(job_id)
        finally:
            fabric.stop()
        assert span["complete"] is True
        terminals = [e for e in span["events"]
                     if e["ev"] in TERMINAL_SPAN_EVENTS]
        assert len(terminals) == 1
