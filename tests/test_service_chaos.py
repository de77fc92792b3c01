"""Seeded chaos suite for the crash-safe job fabric.

Each scenario injects one fault class — worker SIGKILL, whole-fabric
crash + restart, journal truncation, journal bit-flip, store-entry
corruption, stalled/delayed heartbeats — and asserts the invariant:
every submitted job terminates in exactly one of done/failed/dead_letter
and every ``done`` result is counter-digest identical to serial
execution.  All randomness is seeded; reruns inject the same faults.
"""

import dataclasses
import time

import pytest

from repro.common.params import make_casino_config, make_ino_config
from tests.chaos import (
    ChaosFabric,
    assert_invariant,
    serial_digests,
)
from repro.service.jobs import JobSpec
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

N, WARMUP = 1200, 200


def _specs(pairs, n=N, warmup=WARMUP):
    factories = {"ino": make_ino_config, "casino": make_casino_config}
    return [JobSpec.make(factories[core](), SUITE[app],
                         n_instrs=n, warmup=warmup)
            for core, app in pairs]


STANDARD_PAIRS = [("ino", "hmmer"), ("casino", "hmmer"),
                  ("ino", "mcf"), ("casino", "mcf")]


@pytest.fixture(scope="module")
def oracle():
    """Serial ground-truth digests for the standard batch."""
    return serial_digests(_specs(STANDARD_PAIRS))


def _wait_for(predicate, timeout_s=120.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(poll_s)


class TestWorkerSigkill:
    def test_killed_worker_mid_batch_invariant_holds(self, tmp_path):
        specs = _specs([("ino", "hmmer"), ("casino", "hmmer"),
                        ("ino", "mcf")], n=30_000, warmup=1000)
        expected = serial_digests(specs)
        fabric = ChaosFabric(tmp_path, workers=2, seed=101)
        fabric.start()
        try:
            fabric.submit(specs)
            _wait_for(lambda: any(
                e["status"] == "running"
                for e in fabric.service.jobs_snapshot()))
            fabric.kill_random_worker()
            entries = fabric.wait_all(timeout_s=300.0)
            stats = fabric.service.pool.stats_snapshot()
        finally:
            fabric.stop()
        assert stats["worker_deaths"] >= 1
        assert_invariant(entries, fabric.store, specs, expected)


class TestServerRestart:
    def test_restart_mid_batch_no_duplicates_no_losses(self, tmp_path,
                                                       oracle):
        """Acceptance: a restarted server completes the batch with zero
        re-simulation of store-hit jobs and zero lost jobs."""
        specs = _specs(STANDARD_PAIRS)
        fabric = ChaosFabric(tmp_path, workers=2, seed=202)
        fabric.start()
        try:
            fabric.submit(specs)
            # Let part of the batch land, then die without warning.
            _wait_for(lambda: len(ResultStore(tmp_path / "store")) >= 1)
            fabric.crash()
            done_at_crash = len(ResultStore(tmp_path / "store"))

            fabric.start()
            recovery = dict(fabric.service.recovery)
            fabric.ensure_submitted(specs)  # client-retry of unacked work
            entries = fabric.wait_all(timeout_s=300.0)
            dispatched_after = \
                fabric.service.pool.stats_snapshot()["dispatched"]
        finally:
            fabric.stop()
        # Every pre-crash submission was replayed from the journal.
        assert recovery["replayed"] >= done_at_crash
        # Zero duplicate simulations: the second generation dispatches
        # exactly the jobs whose results had not yet landed in the store.
        assert dispatched_after == len(specs) - done_at_crash
        assert len(ResultStore(tmp_path / "store")) == len(specs)
        assert_invariant(entries, fabric.store, specs, oracle)


class TestJournalDamage:
    def test_truncated_tail_recovers_without_resimulation(self, tmp_path,
                                                          oracle):
        specs = _specs(STANDARD_PAIRS)
        fabric = ChaosFabric(tmp_path, workers=2, seed=303)
        fabric.start()
        try:
            fabric.submit(specs)
            fabric.wait_all(timeout_s=300.0)
            fabric.crash()
            assert fabric.truncate_journal_tail(30) > 0

            fabric.start()
            fabric.ensure_submitted(specs)
            entries = fabric.wait_all(timeout_s=300.0)
            stats = fabric.service.pool.stats_snapshot()
        finally:
            fabric.stop()
        # Results all survived in the content-addressed store, so the
        # damaged journal costs bookkeeping, never simulation time.
        assert stats["dispatched"] == 0
        assert_invariant(entries, fabric.store, specs, oracle)

    def test_bit_flip_skipped_and_counted(self, tmp_path, oracle):
        specs = _specs(STANDARD_PAIRS)
        fabric = ChaosFabric(tmp_path, workers=2, seed=404)
        fabric.start()
        try:
            fabric.submit(specs)
            fabric.wait_all(timeout_s=300.0)
            fabric.crash()
            fabric.flip_journal_bit()

            fabric.start()
            journal_stats = fabric.service.journal.stats_snapshot()
            fabric.ensure_submitted(specs)
            entries = fabric.wait_all(timeout_s=300.0)
            stats = fabric.service.pool.stats_snapshot()
        finally:
            fabric.stop()
        assert journal_stats["corrupt_skipped"] \
            + journal_stats["torn_tail"] >= 1
        assert stats["dispatched"] == 0
        assert_invariant(entries, fabric.store, specs, oracle)


class TestStoreCorruption:
    def test_scrub_quarantines_and_repair_recomputes(self, tmp_path,
                                                     oracle):
        specs = _specs(STANDARD_PAIRS)
        fabric = ChaosFabric(tmp_path, workers=2, seed=505)
        fabric.start()
        try:
            fabric.submit(specs)
            fabric.wait_all(timeout_s=300.0)
            key = fabric.corrupt_store_entry()
            report = fabric.service.scrub(repair=True)
            assert key in report["results"]["quarantined"]
            assert len(report["repair"]["requeued"]) == 1
            assert not report["repair"]["unrepairable"]
            entries = fabric.wait_all(timeout_s=300.0)
            # The recomputed record replaced the corrupt one, verbatim.
            record = fabric.store.get(key)
        finally:
            fabric.stop()
        assert record is not None
        assert record["manifest"]["counter_digest"] == oracle[key]
        assert_invariant(entries, fabric.store, specs, oracle)


class TestHeartbeats:
    def test_stalled_heartbeat_reclaimed_bit_identically(self, tmp_path):
        specs = _specs([("ino", "hmmer")])
        expected = serial_digests(specs)
        stalled = [dataclasses.replace(specs[0], test_stall_s=30.0)]
        fabric = ChaosFabric(tmp_path, workers=1, seed=606,
                             lease_s=0.6, heartbeat_s=0.1)
        fabric.start()
        try:
            fabric.submit(stalled)
            entries = fabric.wait_all(timeout_s=300.0)
            stats = fabric.service.pool.stats_snapshot()
        finally:
            fabric.stop()
        assert stats["lease_expired"] >= 1
        assert stats["redeliveries"] >= 1
        assert_invariant(entries, fabric.store, specs, expected)

    def test_delayed_heartbeat_within_lease_is_tolerated(self, tmp_path):
        specs = _specs([("ino", "hmmer")])
        expected = serial_digests(specs)
        delayed = [dataclasses.replace(specs[0], test_stall_s=0.3)]
        fabric = ChaosFabric(tmp_path, workers=1, seed=707,
                             lease_s=5.0, heartbeat_s=0.1)
        fabric.start()
        try:
            fabric.submit(delayed)
            entries = fabric.wait_all(timeout_s=300.0)
            stats = fabric.service.pool.stats_snapshot()
        finally:
            fabric.stop()
        assert stats["lease_expired"] == 0
        assert stats["redeliveries"] == 0
        assert_invariant(entries, fabric.store, specs, expected)


class TestClusterNodeSigkill:
    def test_node_killed_mid_lease_redelivered_bit_identically(
            self, tmp_path, oracle):
        """SIGKILL one of two node processes (whole process group: agent
        + its pool workers) while it holds leases.  The coordinator must
        notice via missed heartbeats, reclaim the dead node's leases,
        redeliver to the survivor, and finish the batch with exactly one
        terminal state per job and serial-identical digests."""
        specs = _specs(STANDARD_PAIRS)
        # Stalls keep leases in flight when the SIGKILL lands (the stall
        # hook is not part of the result key, so the oracle still maps).
        staggered = [dataclasses.replace(s, test_stall_s=1.0)
                     for s in specs]
        fabric = ChaosFabric(tmp_path, workers=0, seed=808)
        fabric.start()
        try:
            fabric.spawn_node()
            fabric.spawn_node()
            fabric.wait_nodes_alive(2)
            ids = fabric.submit(staggered)
            fabric.kill_busy_node()
            entries = fabric.wait_all(timeout_s=240.0)
            counters = dict(fabric.service.counters)
            roster = {e["node"]: e["state"]
                      for e in fabric.service.roster()}
        finally:
            fabric.stop()
        # Exactly one terminal state per submitted job: nothing lost,
        # nothing duplicated.
        assert sorted(entries) == sorted(ids)
        assert all(e["status"] == "done" for e in entries.values())
        assert counters["node_deaths"] == 1
        assert "dead" in roster.values()
        assert_invariant(entries, fabric.store, specs, oracle)

    def test_node_death_with_empty_queue_redelivers_to_survivor(
            self, tmp_path, oracle):
        """Kill the node while the queue is already empty (everything
        leased): redelivery must come purely from lease reclaim."""
        specs = _specs(STANDARD_PAIRS[:2])
        stalled = [dataclasses.replace(s, test_stall_s=0.8)
                   for s in specs]
        fabric = ChaosFabric(tmp_path, workers=0, seed=909)
        fabric.start()
        try:
            fabric.spawn_node()
            fabric.spawn_node()
            fabric.wait_nodes_alive(2)
            fabric.submit(stalled)
            _wait_for(lambda: not any(
                e["status"] == "queued"
                for e in fabric.service.jobs_snapshot()), timeout_s=60)
            victim = fabric.kill_busy_node()
            entries = fabric.wait_all(timeout_s=240.0)
            counters = dict(fabric.service.counters)
        finally:
            fabric.stop()
        assert all(e["status"] == "done" for e in entries.values())
        assert counters["node_deaths"] == 1
        assert_invariant(entries, fabric.store, specs, oracle)


class TestClusterCoordinatorRestart:
    def test_restart_with_live_nodes_no_duplicates_no_losses(
            self, tmp_path, oracle):
        """Crash the coordinator mid-batch (front door gone, journal
        abandoned un-closed) while both node processes stay alive, then
        restart it on the same port.  Nodes reconnect and re-register on
        their own; journal recovery requeues open jobs; completions of
        pre-crash leases are accepted first-completion-wins.  Every job
        ends in exactly one terminal state with serial digests."""
        specs = _specs(STANDARD_PAIRS)
        staggered = [dataclasses.replace(s, test_stall_s=0.4 * (i % 2))
                     for i, s in enumerate(specs)]
        fabric = ChaosFabric(tmp_path, workers=0, seed=1010)
        fabric.start()
        try:
            fabric.spawn_node()
            fabric.spawn_node()
            fabric.wait_nodes_alive(2)
            fabric.submit(staggered)
            time.sleep(0.5)  # some done, some leased, some queued
            fabric.restart()
            recovery = dict(fabric.service.recovery)
            fabric.wait_nodes_alive(2, timeout_s=60)
            # Client retry model: resubmit anything the restarted
            # coordinator does not track (never-acknowledged work).
            fabric.ensure_submitted(staggered)
            entries = fabric.wait_all(timeout_s=240.0)
        finally:
            fabric.stop()
        assert recovery["replayed"] >= 1
        assert recovery["lost"] == 0
        assert all(e["status"] == "done" for e in entries.values())
        assert_invariant(entries, fabric.store, specs, oracle)
