"""HTTP service: submit/poll/result lifecycle, validation, backpressure."""

import urllib.error
import urllib.request

import pytest

from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceDrainingError,
    ServiceError,
)
from repro.service.cluster.frontdoor import create_coordinator

N, WARMUP = 1200, 200


def _serve(store_dir, max_queue):
    """What ``repro serve --workers 1`` runs: coordinator + local node."""
    door, svc = create_coordinator(port=0, workers=1,
                                   store_dir=str(store_dir),
                                   max_queue=max_queue)
    svc.start()
    door.start()
    return door, svc


def _shutdown(door, svc):
    door.stop()
    svc.stop()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("service-store")
    door, svc = _serve(store_dir, max_queue=16)
    client = ServiceClient(door.url, timeout=30)
    yield client
    _shutdown(door, svc)


def _job(core="ino", app="hmmer", **kw):
    body = {"core": core, "app": app, "n": N, "warmup": WARMUP}
    body.update(kw)
    return body


class TestLifecycle:
    def test_healthz(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] >= 0

    def test_submit_wait_result(self, service):
        (entry, ) = service.submit(_job())
        assert entry["status"] in ("queued", "running", "done")
        assert entry["id"].startswith("job-")
        done = service.wait([entry["id"]], poll_s=0.1, timeout_s=120)
        final = done[entry["id"]]
        assert final["status"] == "done"
        assert final["result_url"] == f"/results/{final['key']}"
        envelope = service.result(final["key"])
        assert envelope["key"] == final["key"]
        record = envelope["record"]
        assert record["core"] == "ino" and record["app"] == "hmmer"
        assert record["ipc"] > 0
        assert "counter_digest" in record["manifest"]

    def test_resubmit_served_from_cache(self, service):
        """Same spec again: completes at submission time, marked cached,
        and the store hit counter moves."""
        before = service.stats()["store"]["hits"]
        (entry, ) = service.submit(_job())
        assert entry["status"] == "done"
        assert entry.get("cached") is True
        assert service.stats()["store"]["hits"] > before

    def test_batch_submission(self, service):
        entries = service.submit([_job(app="mcf"), _job(core="casino",
                                                        app="mcf")])
        assert len(entries) == 2
        done = service.wait([e["id"] for e in entries], poll_s=0.1,
                            timeout_s=180)
        assert all(e["status"] == "done" for e in done.values())

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats["schema"] == 2
        for section in ("store", "pool", "queue", "jobs", "telemetry"):
            assert section in stats
        assert stats["queue"]["max"] == 16
        for counter in ("hits", "misses", "writes", "evictions",
                        "quarantined", "entries"):
            assert counter in stats["store"]
        # pool state is namespaced: counters / trace / workers / leases
        pool = stats["pool"]
        for key in ("counters", "trace", "workers", "degraded",
                    "pending", "leases"):
            assert key in pool
        assert "evictions" in pool["trace"]
        assert stats["telemetry"]["enabled"] is True
        assert stats["telemetry"]["spans"] >= 1

    def test_metrics_endpoint(self, service):
        text = service.metrics()
        assert text.startswith("# HELP")
        assert "repro_jobs_submitted_total" in text
        assert "repro_queue_depth" in text

    def test_job_trace_endpoint(self, service):
        (entry, ) = service.submit(_job())   # cache-served by now
        span = service.trace(entry["id"])
        assert span["complete"] is True
        assert span["trace"]
        events = [e["ev"] for e in span["events"]]
        assert events[0] == "submitted"
        assert events[-1] == "completed"

    def test_job_trace_unknown_job(self, service):
        with pytest.raises(ServiceError) as exc:
            service.trace("job-nope")
        assert exc.value.status == 404


class TestValidation:
    def test_unknown_core(self, service):
        with pytest.raises(ServiceError) as exc:
            service.submit(_job(core="pentium4"))
        assert exc.value.status == 400
        assert "unknown core" in str(exc.value)

    def test_unknown_app(self, service):
        with pytest.raises(ServiceError) as exc:
            service.submit(_job(app="doom"))
        assert exc.value.status == 400

    def test_missing_app(self, service):
        with pytest.raises(ServiceError) as exc:
            service.submit({"core": "ino"})
        assert exc.value.status == 400

    def test_invalid_json(self, service):
        req = urllib.request.Request(
            service.base_url + "/jobs", data=b"{ nope",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_unknown_job_and_result_404(self, service):
        with pytest.raises(ServiceError) as exc:
            service.job("job-999999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            service.result("ff" * 16)
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            service._request("/no/such/endpoint")
        assert exc.value.status == 404


class TestDrainScrubListing:
    @pytest.fixture()
    def own_service(self, tmp_path):
        """A private server: these tests mutate service-wide state
        (drain, scrub) that must not leak into the shared fixture."""
        door, svc = _serve(tmp_path / "store", max_queue=16)
        client = ServiceClient(door.url, timeout=30)
        yield client, svc
        _shutdown(door, svc)

    def test_drain_refuses_submissions_with_503(self, own_service):
        client, svc = own_service
        svc.begin_drain()
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceDrainingError) as exc:
            client.submit(_job())
        assert exc.value.status == 503
        assert exc.value.retry_after_s > 0
        req = urllib.request.Request(
            client.base_url + "/jobs", data=b'{"core":"ino","app":"mcf"}',
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as http_exc:
            urllib.request.urlopen(req, timeout=10)
        assert http_exc.value.code == 503
        assert http_exc.value.headers.get("Retry-After") is not None

    def test_jobs_listing_with_status_filter(self, own_service):
        client, _ = own_service
        (entry, ) = client.submit(_job())
        client.wait([entry["id"]], poll_s=0.1, timeout_s=120)
        listed = client.jobs()
        assert any(job["id"] == entry["id"] for job in listed)
        done = client.jobs(status="done")
        assert all(job["status"] == "done" for job in done)
        assert any(job["id"] == entry["id"] for job in done)
        assert client.jobs(status="failed") == []

    def test_scrub_endpoint_reports_and_lands_in_stats(self, own_service):
        client, _ = own_service
        (entry, ) = client.submit(_job())
        client.wait([entry["id"]], poll_s=0.1, timeout_s=120)
        report = client.scrub()
        assert report["results"]["checked"] >= 1
        assert report["results"]["quarantined"] == []
        assert report["quarantine_backlog"] == 0
        assert "scrub" in client.stats()


class TestBackpressure:
    def test_queue_full_yields_429_with_retry_hint(self, tmp_path):
        """A queue of 1 behind slow jobs must answer 429, not buffer."""
        door, svc = _serve(tmp_path / "store", max_queue=1)
        client = ServiceClient(door.url, timeout=30)
        apps = ["hmmer", "mcf", "milc", "gcc", "bwaves", "gobmk",
                "sjeng", "astar"]
        try:
            busy = None
            for app in apps:  # distinct apps: none is cache-served
                try:
                    client.submit(_job(app=app, n=60_000, warmup=2000))
                except ServiceBusyError as exc:
                    busy = exc
                    break
            assert busy is not None, "queue never filled"
            assert busy.status == 429
            assert busy.retry_after_s > 0
            assert "queue full" in str(busy)
        finally:
            _shutdown(door, svc)
