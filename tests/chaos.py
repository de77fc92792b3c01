"""Deterministic chaos harness for the crash-safe job fabric.

Drives the real job service — a coordinator with its journal and store
on one directory, its in-process local node (the ``repro serve`` shape)
and optionally real node processes — through seeded fault injection:
worker SIGKILL, node SIGKILL, whole-fabric crash + restart, journal
truncation and bit-flips, store-entry corruption, stalled heartbeats.
Tests get the levers to assert the fabric invariant:

    every submitted job eventually reaches exactly one of
    done / failed / dead_letter, and every ``done`` result is
    counter-digest identical to a serial run.

Jobs enter below the HTTP client API (``service.submit``) so tests can
reach into the registry; the HTTP surface has its own test module.

All randomness flows from one seeded :class:`random.Random`, so every
"random" victim (worker, node, record, byte, bit) is reproducible from
the scenario's seed.

``crash()`` is the SIGKILL model: the front door and the local node's
loop stop, its workers are killed, and the journal object is
*abandoned* — never flushed, fsync'd or closed — so recovery sees
exactly what a dead process would have left in the page cache (the
journal flushes each append to the kernel, hence a process kill loses
nothing already acknowledged).  Node processes survive a crash, as
remote hosts would.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.service import jobs as jobs_mod
from repro.service.cluster.frontdoor import create_coordinator
from repro.service.jobs import JobSpec, execute_job
from repro.service.store import ResultStore

#: Terminal statuses a job may legally end in (exactly one of).
TERMINAL = ("done", "failed", "dead_letter")


def _node_main(coordinator_url: str, store_dir: str, node_id: str,
               workers: int, heartbeat_s: float,
               close_fds: Sequence[int] = ()) -> None:
    """Entry point of one worker-node *process* (its own process group,
    so a SIGKILL aimed at the node takes its pool workers down too —
    the honest node-death model: nothing on that host survives).

    ``close_fds`` are file descriptors inherited across the fork that
    the node must not hold — above all the coordinator's *listening*
    socket, which would otherwise keep the port bound after a
    coordinator crash and block the same-port restart."""
    os.setpgrp()
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    from repro.service.cluster.node import run_node
    run_node(coordinator_url, store_dir, node_id=node_id, workers=workers,
             heartbeat_s=heartbeat_s)


class ChaosFabric:
    """A restartable job service rooted at one directory.

    ``start()`` builds coordinator + front door (+ a local node of
    ``workers`` pool workers; 0 for none) from whatever the directory
    already holds, so a restart recovers; ``crash()`` kills it without
    any graceful teardown; ``stop()`` drains cleanly.  ``lease_s``,
    ``heartbeat_s``, ``max_redeliveries`` and ``timeout`` configure the
    local node's pool.  Node processes (:meth:`spawn_node`) are genuine
    OS processes wrapping real pools, killed with ``SIGKILL`` to the
    whole process group.  The port is pinned after the first
    ``start()`` so a restart reuses the same address and live nodes
    reconnect on their own.
    """

    def __init__(self, root, workers: int = 2, seed: int = 0,
                 lease_s: float = 30.0,
                 heartbeat_s: Optional[float] = None,
                 max_redeliveries: int = 2,
                 max_queue: int = 256,
                 timeout: Optional[float] = None,
                 journal_sync: str = "always",
                 node_workers: int = 1,
                 node_heartbeat_s: float = 0.15,
                 suspect_after_s: float = 0.6,
                 dead_after_s: float = 1.2) -> None:
        self.root = Path(root)
        self.workers = workers
        self.rng = random.Random(seed)
        self.lease_s = lease_s
        # Defaulted the way SimulationPool defaults it.
        self.heartbeat_s = (heartbeat_s if heartbeat_s is not None
                            else max(lease_s / 4.0, 0.05))
        self.max_redeliveries = max_redeliveries
        self.timeout = timeout
        self.max_queue = max_queue
        self.journal_sync = journal_sync
        self.node_workers = node_workers
        self.node_heartbeat_s = node_heartbeat_s
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = dead_after_s
        self.generation = 0
        self.port = 0  # pinned after the first start()
        self.store: Optional[ResultStore] = None
        self.service = None
        self.door = None
        # fork, not spawn: spawn re-imports the caller's __main__ (hostile
        # under pytest), and the pool already forks under threaded parents.
        self._ctx = multiprocessing.get_context("fork")
        self.nodes: Dict[str, multiprocessing.Process] = {}
        self._node_seq = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        assert self.service is None, "fabric already running"
        self.generation += 1
        self.door, self.service = create_coordinator(
            port=self.port, store_dir=str(self.root / "store"),
            max_queue=self.max_queue, journal_sync=self.journal_sync,
            suspect_after_s=self.suspect_after_s,
            dead_after_s=self.dead_after_s, workers=self.workers,
            timeout=self.timeout)
        pool = self.service.pool
        if pool is not None:  # read by the workers at spawn and each tick
            pool.lease_s = self.lease_s
            pool.heartbeat_s = self.heartbeat_s
            pool.max_redeliveries = self.max_redeliveries
        self.store = self.service.store
        self.service.start()
        self.door.start()
        self.port = self.door.port
        return self.service

    def crash(self) -> None:
        """Die like a SIGKILL: front door gone mid-connection, local
        workers shot, journal abandoned un-flushed; node processes are
        left running."""
        door, self.door = self.door, None
        service, self.service = self.service, None
        if door is not None:
            if service is not None and service.pool is not None:
                # The door's teardown shoots the workers instead of
                # letting them finish their jobs.
                service.pool.close = service.pool.kill
            door.stop()
        if service is not None:
            # The Journal object is abandoned un-closed on purpose (crash
            # model); drop the handle so the next generation reopens fresh.
            if service.journal is not None:
                service.journal._fh = None

    def restart(self):
        self.crash()
        return self.start()

    def stop(self) -> None:
        """Graceful teardown: node processes first, then drain (leased
        jobs finish on the local node), door, journal close."""
        for node_id in list(self.nodes):
            self.stop_node(node_id)
        door, self.door = self.door, None
        service, self.service = self.service, None
        if service is not None:
            service.begin_drain()
            if service.pool is not None:
                service.drain(timeout_s=30.0)
        if door is not None:
            door.stop()
        if service is not None:
            service.stop()

    # -- nodes -----------------------------------------------------------------

    def spawn_node(self, node_id: Optional[str] = None,
                   workers: Optional[int] = None) -> str:
        self._node_seq += 1
        node_id = node_id or f"chaos-node-{self._node_seq}"
        listen_fds = []
        if self.door is not None and self.door._server is not None:
            listen_fds = [s.fileno() for s in self.door._server.sockets]
        proc = self._ctx.Process(
            target=_node_main,
            args=(self.url, str(self.root / node_id), node_id,
                  workers or self.node_workers, self.node_heartbeat_s,
                  listen_fds),
            daemon=False)  # daemonic processes cannot fork pool workers
        proc.start()
        self.nodes[node_id] = proc
        return node_id

    def wait_nodes_alive(self, n: int, timeout_s: float = 30.0) -> None:
        """Wait for ``n`` alive node processes (the local node excluded)."""
        deadline = time.monotonic() + timeout_s
        while True:
            roster = [e for e in (self.service.roster() if self.service
                                  else []) if e["node"] in self.nodes]
            if sum(1 for e in roster if e["state"] == "alive") >= n:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(roster)} node(s) registered after "
                    f"{timeout_s}s (wanted {n})")
            time.sleep(0.05)

    def kill_busy_node(self, timeout_s: float = 30.0) -> str:
        """Wait until some node process provably holds a lease, then
        SIGKILL it — guarantees the kill costs a delivery (the
        reclaim/redelivery path must run for the batch to finish)."""
        deadline = time.monotonic() + timeout_s
        while True:
            busy = sorted(e["node"] for e in self.service.roster()
                          if e["leased"] > 0 and e["node"] in self.nodes
                          and self.nodes[e["node"]].is_alive())
            if busy:
                return self.kill_node(self.rng.choice(busy))
            if time.monotonic() > deadline:
                raise TimeoutError("no node ever held a lease")
            time.sleep(0.02)

    def kill_node(self, node_id: Optional[str] = None) -> str:
        """SIGKILL one node's whole process group (agent + pool
        workers); the coordinator only learns via missed heartbeats."""
        live = sorted(nid for nid, proc in self.nodes.items()
                      if proc.is_alive())
        assert live, "no live node to kill"
        node_id = node_id or self.rng.choice(live)
        proc = self.nodes[node_id]
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.join(timeout=10.0)
        return node_id

    def stop_node(self, node_id: str, timeout_s: float = 30.0) -> None:
        """Graceful node shutdown (SIGTERM: finish in-flight, report,
        exit)."""
        proc = self.nodes.pop(node_id, None)
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=timeout_s)
        if proc.is_alive():  # refuse to leak processes out of a test
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.join(timeout=5.0)

    # -- job plumbing ----------------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> List[str]:
        return [self.service.submit(spec)["id"] for spec in specs]

    def ensure_submitted(self, specs: Sequence[JobSpec]) -> List[str]:
        """Client-retry model: (re)submit every spec the service does
        not currently track.  After a crash, submissions that were never
        durably acknowledged are exactly the ones a real client would
        retry on its connection error."""
        known = {entry.get("key") for entry in self.service.jobs_snapshot()}
        return [self.service.submit(spec)["id"] for spec in specs
                if spec.key() not in known]

    def wait_all(self, timeout_s: float = 300.0) -> Dict[str, dict]:
        """Wait until every tracked job is terminal; {id: public entry}."""
        deadline = time.monotonic() + timeout_s
        while True:
            entries = {e["id"]: e for e in self.service.jobs_snapshot()}
            if entries and all(e["status"] in TERMINAL
                               for e in entries.values()):
                return entries
            if time.monotonic() > deadline:
                stuck = [e["id"] for e in entries.values()
                         if e["status"] not in TERMINAL]
                raise TimeoutError(f"jobs stuck after {timeout_s}s: {stuck}")
            time.sleep(0.05)

    # -- fault injectors (all seeded through self.rng) -------------------------

    def kill_random_worker(self) -> int:
        """SIGKILL one live local-node worker, preferring one with a job
        in flight (waited for up to 30 s, so the kill actually costs a
        delivery); returns its pid.

        The pool's maps belong to the local node's thread, so they are
        copied (one atomic call each) before being walked: ``is_alive``
        waits on the child and releases the GIL, and the node thread may
        assign or finish a job meanwhile."""
        pool = self.service.pool
        deadline = time.monotonic() + 30.0
        while True:
            workers = dict(pool._workers)
            busy = sorted(pid for pid in list(pool._assigned)
                          if pid in workers and workers[pid].is_alive())
            if busy or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        victims = busy or sorted(pid for pid, proc in workers.items()
                                 if proc.is_alive())
        assert victims, "no live worker to kill"
        pid = self.rng.choice(victims)
        os.kill(pid, signal.SIGKILL)
        return pid

    def journal_segments(self) -> List[Path]:
        root = self.root / "store" / "journal"
        return sorted(root.glob("segment-*.jrnl"))

    def truncate_journal_tail(self, n_bytes: int = 25) -> int:
        """Torn-write model: chop ``n_bytes`` off the newest segment."""
        segments = self.journal_segments()
        assert segments, "no journal segment to truncate"
        path = segments[-1]
        size = path.stat().st_size
        keep = max(size - n_bytes, 0)
        with open(path, "rb+") as fh:
            fh.truncate(keep)
        return size - keep

    def flip_journal_bit(self) -> int:
        """Bit-rot model: flip one random bit in a random journal byte
        (never the final line, which is the torn-tail injector's job).
        Returns the absolute byte offset flipped."""
        segments = self.journal_segments()
        assert segments, "no journal segment to corrupt"
        path = self.rng.choice(segments)
        data = bytearray(path.read_bytes())
        assert data, "journal segment empty"
        last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
        offset = self.rng.randrange(max(last_line_start, 1))
        data[offset] ^= 1 << self.rng.randrange(8)
        path.write_bytes(bytes(data))
        return offset

    def corrupt_store_entry(self, key: Optional[str] = None) -> str:
        """Flip one bit in one stored result record; returns its key."""
        store = self.store
        if key is None:
            keys = store.keys()
            assert keys, "no store entry to corrupt"
            key = self.rng.choice(keys)
        path = store._path(key)
        data = bytearray(path.read_bytes())
        offset = self.rng.randrange(len(data))
        data[offset] ^= 1 << self.rng.randrange(8)
        path.write_bytes(bytes(data))
        return key


# -- oracle --------------------------------------------------------------------


def serial_digests(specs: Sequence[JobSpec]) -> Dict[str, str]:
    """Ground truth: {result key: counter digest} from serial execution.

    The oracle's runners are dropped afterwards: pool workers fork from
    this process, and inheriting its memoised results would let them
    answer without simulating, so the invariant would compare the oracle
    with itself (and "mid-batch" faults would race jobs that finish in
    milliseconds)."""
    saved = dict(jobs_mod._RUNNERS)
    jobs_mod._RUNNERS.clear()
    digests: Dict[str, str] = {}
    try:
        for spec in specs:
            record = execute_job(spec)
            assert not record.get("failed"), record.get("error")
            digests[spec.key()] = record["manifest"]["counter_digest"]
    finally:
        jobs_mod._RUNNERS.clear()
        jobs_mod._RUNNERS.update(saved)
    return digests


def fabric_digests(store: ResultStore,
                   specs: Sequence[JobSpec]) -> Dict[str, str]:
    """{result key: counter digest} as the fabric's store recorded them."""
    digests: Dict[str, str] = {}
    for spec in specs:
        record = store.get(spec.key())
        if record is not None:
            digests[spec.key()] = record["manifest"]["counter_digest"]
    return digests


def assert_invariant(entries: Dict[str, dict],
                     store: ResultStore,
                     specs: Sequence[JobSpec],
                     expected: Dict[str, str]) -> None:
    """The fabric invariant, as one assertion helper.

    * every tracked job is in exactly one terminal state;
    * every submitted spec is tracked by at least one job;
    * every ``done`` result in the store is counter-digest identical to
      the serial oracle.
    """
    for entry in entries.values():
        assert entry["status"] in TERMINAL, \
            f"{entry['id']} not terminal: {entry['status']}"
    tracked = {e.get("key") for e in entries.values()}
    for spec in specs:
        assert spec.key() in tracked, f"lost job: {spec.label()}"
    for key, digest in fabric_digests(store, specs).items():
        assert digest == expected[key], f"digest mismatch for {key}"
