"""``repro serve`` as one service: a coordinator with an in-process node.

The single-box shape is the cluster coordinator plus a local
``ClusterNode`` that shares the coordinator's store and pulls leases
from its own front door over loopback.  This module pins what that shape
adds: live worker counts, per-request latency without a stall, HTTP
framing errors answered instead of dropped, in-flight coalescing on one
box, and recovery of a journal written by the earlier threaded service.
"""

import http.client
import shutil
import socket
import time
from pathlib import Path

import pytest

from repro.common.params import make_ino_config
from repro.service.client import ServiceClient
from repro.service.cluster.frontdoor import create_coordinator
from repro.service.jobs import JobSpec
from repro.service.journal import TERMINAL_STATES, Journal, fold_jobs
from repro.workloads.suite import SUITE
from tests.chaos import serial_digests

N, WARMUP = 1200, 200

#: Journal written by the threaded ``SimulationService`` this service
#: replaced, then SIGKILLed: job-1 finished, job-2 cache-served, job-3
#: and job-4 leased to the pool, job-5 still queued.  Frozen: never
#: regenerate it, it is the compatibility contract for old journals.
PARENT_JOURNAL = Path(__file__).parent / "data" / "parent_journal"


def _serve(store_dir, **kw):
    door, service = create_coordinator(port=0, workers=1,
                                       store_dir=str(store_dir), **kw)
    service.start()
    door.start()
    return door, service


def _wait_registered(service):
    deadline = time.monotonic() + 30.0
    while not service.roster():  # the local node registers from its loop
        assert time.monotonic() < deadline
        time.sleep(0.01)


def _gcc_spec():
    return JobSpec.make(make_ino_config(), SUITE["gcc"], n_instrs=N,
                        warmup=WARMUP)


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    door, service = _serve(tmp_path_factory.mktemp("single"), max_queue=16)
    client = ServiceClient(door.url, timeout=30)
    _wait_registered(service)
    yield client, service, door
    client.close()
    door.stop()
    service.stop()


def _wait_terminal(service, job_ids, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while True:
        jobs = {j: service.job(j) for j in job_ids}
        if all(e["status"] in TERMINAL_STATES for e in jobs.values()):
            return jobs
        assert time.monotonic() < deadline, jobs
        time.sleep(0.02)


class TestShape:
    def test_healthz_counts_live_pool_workers(self, single):
        client, service, _ = single
        health = client.health()
        assert health["workers"] == service.pool.alive_workers() == 1
        assert [n["node"] for n in health["nodes"]] == ["local"]

    def test_stats_carry_pool_and_cluster(self, single):
        client, _, _ = single
        stats = client.stats()
        assert stats["pool"]["workers"] == 1
        assert stats["cluster"]["nodes"][0]["node"] == "local"

    def test_keepalive_requests_do_not_stall(self, single):
        """20 keep-alive round trips well under the 20 x 44 ms a
        two-send response costs under Nagle + delayed ACK."""
        _, _, door = single
        conn = http.client.HTTPConnection("127.0.0.1", door.port,
                                          timeout=10)
        try:
            conn.request("GET", "/healthz")  # connect outside the timing
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 requests took {elapsed:.3f}s"

    def test_negative_content_length_answers_400(self, single):
        _, _, door = single
        with socket.create_connection(("127.0.0.1", door.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -1\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
        assert b"Content-Length" in reply


class TestCoalescing:
    def test_racing_duplicates_coalesce_with_identical_results(self,
                                                               single):
        client, service, _ = single
        spec = _gcc_spec()
        body = {"core": "ino", "app": "gcc", "n": N, "warmup": WARMUP,
                "accounting": False}
        entries = client.submit({"jobs": [dict(body, test_stall_s=0.5),
                                          body]})
        coalesced = [e for e in entries if e.get("coalesced")]
        assert len(coalesced) == 1, entries
        done = _wait_terminal(service, [e["id"] for e in entries])
        assert all(e["status"] == "done" for e in done.values())
        (key, ) = {e["key"] for e in done.values()}
        assert key == spec.key()
        record = client.result(key)["record"]
        assert record["manifest"]["counter_digest"] == \
            serial_digests([spec])[key]


class TestLocalNodeFailure:
    """The local node's thread has no process of its own to exit
    visibly, so a failure must show in ``/healthz`` instead."""

    def test_failed_request_reregisters_and_keeps_serving(self, tmp_path):
        door, service = _serve(tmp_path / "store")
        client = ServiceClient(door.url, timeout=30)
        try:
            _wait_registered(service)
            real_lease, failed = service.try_lease, []

            def lease_fails_once(*args, **kwargs):
                if not failed:
                    failed.append(True)
                    raise RuntimeError("injected")  # the door answers 500
                return real_lease(*args, **kwargs)

            service.try_lease = lease_fails_once
            job_id = service.submit(_gcc_spec())["id"]
            done = _wait_terminal(service, [job_id])
            assert failed
            assert done[job_id]["status"] == "done"
            assert client.health()["workers"] == 1
            assert service.counters["nodes_registered"] == 1
        finally:
            client.close()
            door.stop()
            service.stop()

    def test_failed_local_node_stops_counting_workers(self, tmp_path):
        door, service = _serve(tmp_path / "store")
        client = ServiceClient(door.url, timeout=30)
        try:
            _wait_registered(service)
            assert client.health()["workers"] == 1

            def submit_fails(spec):
                raise RuntimeError("injected")

            door.local_node.pool.submit = submit_fails
            service.submit(_gcc_spec())
            deadline = time.monotonic() + 30.0
            while client.health()["workers"] != 0:
                assert time.monotonic() < deadline, client.health()
                time.sleep(0.02)
            assert service.stats()["pool"]["workers"] == 0
        finally:
            client.close()
            door.stop()
            service.stop()


class TestParentJournal:
    def test_parent_journal_recovers_under_unified_service(self,
                                                           tmp_path):
        store_dir = tmp_path / "store"
        shutil.copytree(PARENT_JOURNAL, store_dir / "journal")
        folded = fold_jobs(list(Journal(store_dir / "journal").records()))
        # The fixture holds what it claims to.
        assert {j: s["status"] for j, s in folded.items()} == {
            "job-1": "done", "job-2": "done", "job-3": "leased",
            "job-4": "leased", "job-5": "submitted"}
        assert folded["job-2"]["cached"] is True
        rerun = ["job-3", "job-4", "job-5"]
        specs = {j: JobSpec(**folded[j]["spec"]) for j in rerun}
        expected = serial_digests(list(specs.values()))

        door, service = _serve(store_dir, journal_sync="always")
        try:
            assert service.recovery["replayed"] == 5
            assert service.recovery["recovered_done"] == 2
            assert service.recovery["requeued"] == 3
            for job_id in ("job-1", "job-2"):
                entry = service.job(job_id)
                assert entry["status"] == "done"
                assert entry["key"] == folded[job_id]["key"]
            done = _wait_terminal(service, rerun)
            for job_id, entry in done.items():
                # Keys cover the code revision, so the journaled key and
                # today's differ; the job keeps its journaled one.
                assert entry["status"] == "done", entry
                assert entry["key"] == folded[job_id]["key"]
                record = service.store.get(entry["key"])
                assert record["manifest"]["counter_digest"] == \
                    expected[specs[job_id].key()]
            fresh = service.submit(JobSpec.make(
                make_ino_config(), SUITE["astar"], n_instrs=N,
                warmup=WARMUP))
            assert int(fresh["id"][len("job-"):]) > 5
        finally:
            door.stop()
            service.stop()
