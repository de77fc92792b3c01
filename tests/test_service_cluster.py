"""Cluster fabric: coordinator, async front door, nodes, replication.

In-process topology: the coordinator state machine + asyncio front door
run in this process, worker nodes run as *threads* wrapping real
``ClusterNode`` agents (their pools still fork real worker processes).
Process-level chaos — node SIGKILL, coordinator restart — lives in
``test_service_chaos.py``; this module covers the protocol and its
semantics: round-trip correctness vs serial, cross-sweep dedup,
in-flight coalescing, pull-through replication, long-polling, the
429/503 contract, keep-alive connection reuse, and the node lifecycle
state machine (alive -> suspect -> dead -> lease reclaim).
"""

import dataclasses
import threading
import time

import pytest

from repro.common.params import make_casino_config, make_ino_config
from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceDrainingError,
)
from repro.service.cluster import (
    ClusterFrontDoor,
    ClusterNode,
    ClusterService,
    ReplicaStore,
)
from repro.service.cluster.frontdoor import create_coordinator
from repro.service.jobs import JobSpec
from repro.service.store import ResultStore, encode_record
from repro.workloads.suite import SUITE
from tests.chaos import serial_digests

N, WARMUP = 1200, 200
TERMINAL = ("done", "failed", "dead_letter")


def _job(core="ino", app="hmmer", n=N, **kw):
    body = {"core": core, "app": app, "n": n, "warmup": WARMUP}
    body.update(kw)
    return body


def _spec(core="ino", app="hmmer", n=N, **kw):
    factories = {"ino": make_ino_config, "casino": make_casino_config}
    return JobSpec.make(factories[core](), SUITE[app],
                        n_instrs=n, warmup=WARMUP, **kw)


def _wait_for(predicate, timeout_s=120.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(poll_s)


class _ThreadNode:
    """One ClusterNode agent pumped by a daemon thread."""

    def __init__(self, url, store_dir, node_id):
        self.node = ClusterNode(url, store_dir, node_id=node_id,
                                workers=1, heartbeat_s=0.2,
                                lease_wait_s=0.2)
        self.node.pool.start()
        self.thread = threading.Thread(target=self.node.run, daemon=True)
        self.thread.start()

    def stop(self):
        self.node.stop()
        self.thread.join(timeout=15)
        self.node.close()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """Coordinator + front door + two single-worker nodes + client."""
    root = tmp_path_factory.mktemp("cluster")
    door, service = create_coordinator(
        store_dir=str(root / "coord"), max_queue=32,
        journal_sync="always", suspect_after_s=2.0, dead_after_s=60.0)
    service.start()
    door.start()
    nodes = [_ThreadNode(door.url, str(root / f"n{i}"), f"tnode-{i}")
             for i in (1, 2)]
    client = ServiceClient(door.url, timeout=30)
    _wait_for(lambda: sum(1 for e in service.roster()
                          if e["state"] == "alive") == 2, timeout_s=30)
    yield client, service, door
    for tn in nodes:
        tn.stop()
    door.stop()
    service.stop()


class TestRoundTrip:
    def test_healthz_includes_roster_with_heartbeat_ages(self, cluster):
        client, service, _ = cluster
        health = client.health()
        assert health["role"] == "coordinator"
        assert health["workers"] == 2
        states = {n["node"]: n for n in health["nodes"]}
        assert set(states) == {"tnode-1", "tnode-2"}
        for entry in states.values():
            assert entry["state"] == "alive"
            assert entry["last_heartbeat_age_s"] < 5.0

    def test_submit_runs_on_nodes_digest_matches_serial(self, cluster):
        client, service, _ = cluster
        expected = serial_digests([_spec("ino", "hmmer"),
                                   _spec("casino", "hmmer")])
        entries = client.submit([_job("ino", "hmmer"),
                                 _job("casino", "hmmer")])
        done = client.wait([e["id"] for e in entries], timeout_s=120,
                           long_poll_s=5.0)
        assert all(e["status"] == "done" for e in done.values())
        for entry in done.values():
            record = client.result(entry["key"])["record"]
            assert record["manifest"]["counter_digest"] == \
                expected[entry["key"]]

    def test_trace_spans_cross_the_wire(self, cluster):
        client, service, _ = cluster
        (entry, ) = client.submit(_job("ino", "mcf"))
        client.wait([entry["id"]], timeout_s=120, long_poll_s=5.0)
        trace = client.trace(entry["id"])
        events = [e["ev"] for e in trace["events"]]
        assert trace["complete"]
        for ev in ("submitted", "journaled", "leased", "started",
                   "simulated", "stored", "completed"):
            assert ev in events, f"missing span event {ev}: {events}"
        node_stamped = [e for e in trace["events"]
                        if e["ev"] in ("started", "simulated")]
        assert node_stamped and all(
            e.get("node", "").startswith("tnode-") for e in node_stamped)

    def test_metrics_merge_node_snapshots(self, cluster):
        client, service, _ = cluster
        _wait_for(lambda: any(n.get("telemetry")
                              for n in service._nodes.values()),
                  timeout_s=30)
        text = client.metrics()
        assert "repro_node_jobs_leased_total" in text
        assert "repro_jobs_terminal_total" in text
        assert "repro_cluster_nodes" in text


class TestCrossSweepDedup:
    def test_resubmit_is_store_served(self, cluster):
        client, service, _ = cluster
        (first, ) = client.submit(_job("ino", "hmmer", n=N + 8))
        client.wait([first["id"]], timeout_s=120, long_poll_s=5.0)
        cached_before = service.counters["cached"]
        (again, ) = client.submit(_job("ino", "hmmer", n=N + 8))
        assert again["status"] == "done"
        assert again.get("cached") is True
        assert service.counters["cached"] == cached_before + 1

    def test_overlapping_sweeps_from_two_clients_share_entries(
            self, cluster):
        client, service, door = cluster
        other = ServiceClient(door.url, timeout=30)
        try:
            (a, ) = client.submit(_job("casino", "mcf", n=N + 16))
            client.wait([a["id"]], timeout_s=120, long_poll_s=5.0)
            (b, ) = other.submit(_job("casino", "mcf", n=N + 16))
            assert b["status"] == "done" and b.get("cached") is True
            assert b["key"] == client.job(a["id"])["key"]
        finally:
            other.close()

    def test_racing_duplicate_coalesces_in_flight(self, cluster):
        client, service, _ = cluster
        # The stall keeps the primary leased long enough for the
        # duplicate to race it (stall hooks are not part of the key).
        pair = [_job("ino", "mcf", n=N + 24, test_stall_s=1.0),
                _job("ino", "mcf", n=N + 24)]
        entries = client.submit({"jobs": pair})
        statuses = {e["id"]: e for e in entries}
        assert len(statuses) == 2
        coalesced = [e for e in entries if e.get("coalesced")]
        assert len(coalesced) == 1, entries
        done = client.wait([e["id"] for e in entries], timeout_s=120,
                           long_poll_s=5.0)
        assert all(e["status"] == "done" for e in done.values())
        assert service.counters["coalesced"] >= 1
        trace = client.trace(coalesced[0]["id"])
        assert "coalesced" in [e["ev"] for e in trace["events"]]


class TestLongPoll:
    def test_wait_param_parks_until_terminal(self, cluster):
        client, service, _ = cluster
        (entry, ) = client.submit(_job("casino", "hmmer", n=N + 32,
                                       test_stall_s=0.8))
        t0 = time.monotonic()
        final = client.job(entry["id"], wait_s=30.0)
        elapsed = time.monotonic() - t0
        assert final["status"] in TERMINAL
        assert elapsed < 30.0  # returned on completion, not the cap

    def test_wait_expires_on_nonterminal_job(self, cluster):
        client, service, _ = cluster
        (entry, ) = client.submit(_job("ino", "hmmer", n=N + 40,
                                       test_stall_s=1.5))
        got = client.job(entry["id"], wait_s=0.1)
        assert got["id"] == entry["id"]  # answered, terminal or not
        client.wait([entry["id"]], timeout_s=120, long_poll_s=5.0)


class TestKeepAlive:
    def test_batch_of_requests_reuses_one_connection(self, cluster):
        """Satellite micro-benchmark: N requests != N sockets."""
        client, service, door = cluster
        probe = ServiceClient(door.url, timeout=30)
        try:
            probe.health()
            opened_after_first = probe.connections_opened
            entries = probe.submit([_job("ino", "hmmer", n=N + 48 + i)
                                    for i in range(8)])
            probe.wait([e["id"] for e in entries], timeout_s=120,
                       long_poll_s=2.0)
            for _ in range(5):
                probe.stats()
            assert opened_after_first == 1
            assert probe.connections_opened == 1, \
                f"opened {probe.connections_opened} sockets for ~20+ requests"
        finally:
            probe.close()

    def test_stale_connection_retries_transparently(self, cluster):
        client, service, door = cluster
        probe = ServiceClient(door.url, timeout=30)
        try:
            probe.health()
            # Kill the pooled socket behind the client's back; the next
            # request must succeed on a fresh connection.
            probe._conn.sock.close()
            assert probe.health()["status"] in ("ok", "draining")
            assert probe.connections_opened == 2
        finally:
            probe.close()


class TestBackpressure:
    def test_queue_full_gives_429_and_drain_gives_503(self, tmp_path):
        door, service = create_coordinator(
            store_dir=str(tmp_path / "bp"), max_queue=2,
            journal_sync="none")
        service.start()
        door.start()
        client = ServiceClient(door.url, timeout=10)
        try:
            # No nodes lease, so submissions pile into the bounded queue.
            client.submit([_job(n=N + 100), _job(n=N + 101)])
            with pytest.raises(ServiceBusyError) as exc:
                client.submit(_job(n=N + 102))
            assert exc.value.retry_after_s > 0
            service.begin_drain()
            with pytest.raises(ServiceDrainingError):
                client.submit(_job(n=N + 103))
            assert client.health()["status"] == "draining"
        finally:
            client.close()
            door.stop()
            service.stop()


class TestNodeLifecycle:
    def test_silent_node_goes_suspect_then_dead_then_reclaim(
            self, tmp_path):
        """Drive the roster state machine deterministically: a fake node
        leases a job, falls silent, and the tick escalates it
        alive -> suspect (visible, nothing reclaimed) -> dead (lease
        requeued for the survivors)."""
        store = ResultStore(tmp_path / "store")
        service = ClusterService(store, suspect_after_s=1.0,
                                 dead_after_s=2.0)
        service.register_node("ghost", capacity=1)
        service.register_node("survivor", capacity=1)
        service.submit(_spec("ino", "hmmer"))
        leases = service.try_lease("ghost", max_jobs=1)
        assert len(leases) == 1
        job_id = leases[0]["id"]
        # Rewind the ghost's heartbeat instead of advancing the clock,
        # so the survivor's liveness is untouched by the same tick.
        service._nodes["ghost"]["last_hb"] -= 1.5  # past suspect
        service.tick()
        roster = {e["node"]: e for e in service.roster()}
        assert roster["ghost"]["state"] == "suspect"
        assert service.job(job_id)["status"] == "running"  # not reclaimed
        service._nodes["ghost"]["last_hb"] -= 1.0  # past dead
        service.tick()
        roster = {e["node"]: e for e in service.roster()}
        assert roster["ghost"]["state"] == "dead"
        assert roster["survivor"]["state"] == "alive"
        assert service.job(job_id)["status"] == "queued"  # redelivery
        assert service.counters["redeliveries"] == 1
        release = service.try_lease("survivor", max_jobs=1)
        assert [j["id"] for j in release] == [job_id]
        assert release[0]["attempt"] == 2
        from repro.service.cluster.coordinator import UnknownNodeError
        with pytest.raises(UnknownNodeError):
            service.heartbeat("ghost")  # dead nodes must re-register

    def test_redelivery_budget_dead_letters_poison_leases(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = ClusterService(store, suspect_after_s=0.5,
                                 dead_after_s=1.0, max_redeliveries=1)
        service.submit(_spec("casino", "hmmer"))
        job_id = None
        base = time.monotonic()
        for round_no in range(3):
            node = f"doomed-{round_no}"
            service.register_node(node, capacity=1)
            leases = service.try_lease(node, max_jobs=1)
            if not leases:
                break
            job_id = leases[0]["id"]
            base += 2.0
            service.tick(now=base)  # node dies silently every round
        entry = service.job(job_id)
        assert entry["status"] == "dead_letter"
        assert "deliver" in entry["error"]
        assert service.counters["dead_lettered"] == 1

    def test_duplicate_completion_is_idempotent_noop(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = ClusterService(store, suspect_after_s=30.0,
                                 dead_after_s=60.0)
        service.register_node("a", capacity=1)
        service.register_node("b", capacity=1)
        spec = _spec("ino", "mcf")
        from repro.service.jobs import execute_job
        record = execute_job(spec)
        entry = service.submit(spec)
        (lease, ) = service.try_lease("a", max_jobs=1)
        first = service.complete("a", lease["id"], record)
        second = service.complete("b", lease["id"], record)
        assert first["accepted"] is True
        assert second == {"accepted": False, "duplicate": True}
        assert service.counters["completed"] == 1
        assert service.counters["duplicate_completions"] == 1
        assert service.job(entry["id"])["status"] == "done"


class TestReplicaStore:
    def _record(self):
        return {"core": "x", "app": "y", "ipc": 1.0,
                "manifest": {"counter_digest": "d" * 8}}

    def test_fetch_on_miss_verifies_and_caches_byte_identically(
            self, tmp_path):
        import json
        authority = ResultStore(tmp_path / "authority")
        record = self._record()
        key = "ab" * 16
        authority.put(key, record)
        fetches = []

        def fetch(k):
            fetches.append(k)
            raw = authority.get_bytes(k)
            return json.loads(raw) if raw is not None else None

        replica = ReplicaStore(ResultStore(tmp_path / "replica"), fetch)
        assert replica.get(key) == record          # miss -> fetch
        assert replica.get(key) == record          # now local
        assert fetches == [key]
        assert replica.stats == {"local_hits": 1, "fetched": 1,
                                 "fetch_misses": 0, "verify_failures": 0}
        # Replication is byte-identical: same canonical envelope bytes.
        assert replica.local.get_bytes(key) == authority.get_bytes(key)

    def test_corrupt_wire_envelope_is_rejected_not_cached(self, tmp_path):
        import json
        record = self._record()
        key = "cd" * 16
        envelope = json.loads(encode_record(key, record))
        envelope["record"]["ipc"] = 999.0  # payload no longer matches digest

        replica = ReplicaStore(ResultStore(tmp_path / "replica"),
                               lambda k: envelope)
        assert replica.get(key) is None
        assert replica.stats["verify_failures"] == 1
        assert key not in replica.local

    def test_fetch_miss_counts_and_returns_none(self, tmp_path):
        replica = ReplicaStore(ResultStore(tmp_path / "replica"),
                               lambda k: None)
        assert replica.get("ef" * 16) is None
        assert replica.stats["fetch_misses"] == 1


class TestTraceReplication:
    """Published input traces ride the result namespace: coordinator
    ``publish_trace`` -> ``GET /results/<key>`` -> ``verify_envelope``
    -> codec self-verification -> node-local binary cache."""

    def _trace(self, app, n):
        from repro.workloads.generator import SyntheticWorkload
        return SyntheticWorkload(SUITE[app]).generate(n)

    def test_publish_then_fetch_through_live_door(self, cluster,
                                                  tmp_path):
        from repro.engine.soatrace import encode_trace
        from repro.service.store import TraceStore, trace_key
        client, service, door = cluster
        profile = SUITE["mcf"]
        trace = self._trace("mcf", 900)
        key = service.publish_trace(profile, 900, trace)
        assert key == trace_key(profile, 900)
        local = TraceStore(tmp_path / "traces",
                           fetch=lambda k: client.result(k))
        served = local.get(profile, 900)
        assert served is not None
        assert local.stats["fetched"] == 1
        # Bit-identical replication: re-encoding the served stream
        # reproduces the published container exactly.
        assert encode_trace(served, key) == encode_trace(trace, key)
        assert local.get(profile, 900) is not None  # now local
        assert local.stats["fetched"] == 1

    def test_node_prefetches_published_trace(self, cluster, tmp_path):
        from repro.service.store import trace_key
        client, service, door = cluster
        profile = SUITE["hmmer"]
        service.publish_trace(profile, 1000, self._trace("hmmer", 1000))
        node = ClusterNode(door.url, str(tmp_path / "nstore"),
                           node_id="tnode-prefetch", workers=1)
        try:
            spec = _spec(core="ino", app="hmmer", n=1000)
            node._prefetch_trace(spec)
            assert node.stats["traces_prefetched"] == 1
            # The verified container landed on the shard the pool
            # workers read, so no worker pays generation for this job.
            assert node.traces._path(trace_key(profile, 1000)).exists()
            node._prefetch_trace(spec)  # idempotent: local, no refetch
            assert node.stats["traces_prefetched"] == 1
        finally:
            node.close()

    def test_wrong_key_payload_rejected_legacy_pickle_served(
            self, tmp_path):
        import json
        import pickle
        from repro.service.store import (TRACE_SCHEMA, TraceStore,
                                         trace_key, trace_wire_record)
        profile = SUITE["mcf"]
        trace = self._trace("mcf", 700)
        key = trace_key(profile, 700)
        # A consistent envelope whose payload was encoded for another
        # key: verify_envelope passes, the codec's key check must not.
        alien = trace_wire_record("ab" * 32, trace)
        envelope = json.loads(encode_record(key, alien))
        store = TraceStore(tmp_path / "traces", fetch=lambda k: envelope)
        assert store.get(profile, 700) is None
        assert not store._path(key).exists()
        assert store.stats["fetched"] == 0
        # Legacy pickled envelopes written by older workers still serve.
        legacy = store._legacy_path(key)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_bytes(pickle.dumps(
            {"schema": TRACE_SCHEMA, "key": key, "trace": trace}))
        served = store.get(profile, 700)
        assert served is not None and len(served) == len(trace)
        assert store.stats["hits"] == 1
