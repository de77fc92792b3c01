"""Worker-node agent: lease, replicate, simulate, report.

A :class:`ClusterNode` is one worker host in the fabric.  It wraps a
lease-based :class:`~repro.service.pool.SimulationPool` (per-worker
heartbeats, bounded redeliveries, dead-letters) and speaks the
coordinator's pull protocol over one keep-alive HTTP connection — also
when it is the in-process *local node* of ``repro serve``, which runs in
a background thread (:meth:`ClusterNode.start`) and shares the
coordinator's :class:`~repro.service.store.ResultStore` object:

1. ``register`` with a capacity, then ``heartbeat`` periodically —
   every message renews liveness, so a busy node never goes suspect.
2. ``lease`` up to its idle capacity.  Each leased job is first tried
   against the node's pull-through :class:`ReplicaStore` (local store,
   then fetch-on-miss from the coordinator with sha256 verification);
   a hit completes instantly with zero simulation.
3. Misses run on the local pool; pool span events (started / simulated /
   stored / redelivered / worker_died ...) are buffered per job, stamped
   with the node id, and ride the ``complete`` message back — together
   with a cumulative telemetry snapshot merging the node's own registry
   and every pool worker's, so the coordinator's ``/metrics`` and
   ``GET /jobs/<id>/trace`` see every node alike.
4. A completion that cannot be delivered (coordinator briefly down) is
   parked in an outbox and retried — finished work is never dropped.

Transport failures degrade to backoff-and-retry; an ``unknown node``
rejection (coordinator restarted, or it declared us dead while we were
partitioned) triggers re-registration.  The journal lives coordinator-
side: node death is handled by lease reclaim + redelivery there, so the
node itself keeps no durable state beyond its local store replica.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Dict, List, Optional, Union

from repro.obs.telemetry import (MetricsRegistry, get_logger, log_event,
                                 merge_snapshots)
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster.replica import ReplicaStore
from repro.service.jobs import JobSpec
from repro.service.pool import SimulationPool
from repro.service.store import ResultStore, TraceStore

_LOG = get_logger("service.cluster.node")


def default_node_id() -> str:
    return f"node-{socket.gethostname()}-{os.getpid()}"


class ClusterNode:
    """``store`` is a directory for the node's own replica store, or the
    coordinator's :class:`ResultStore` itself for the local node (then
    there is nothing to replicate: no fetch-on-miss).  ``workers=None``
    means one pool worker per CPU."""

    def __init__(self, coordinator_url: Optional[str],
                 store: Union[str, os.PathLike, ResultStore],
                 node_id: Optional[str] = None,
                 workers: Optional[int] = 1,
                 heartbeat_s: float = 1.0,
                 lease_wait_s: float = 0.5,
                 job_timeout_s: Optional[float] = None) -> None:
        self.node_id = node_id or default_node_id()
        self.heartbeat_s = heartbeat_s
        self.lease_wait_s = lease_wait_s
        self.client = (ServiceClient(coordinator_url, timeout=30.0)
                       if coordinator_url else None)
        shared = isinstance(store, ResultStore)
        self.store = store if shared else ResultStore(store)
        fetch = None if shared else self._fetch_envelope
        self.replica = ReplicaStore(self.store, fetch) if fetch else None
        self.telemetry = MetricsRegistry()
        self._m_leased = self.telemetry.counter(
            "repro_node_jobs_leased_total", "Jobs leased by this node")
        self._m_replica = self.telemetry.counter(
            "repro_node_replica_hits_total",
            "Leased jobs served from the replica store with no simulation")
        self._m_completed = self.telemetry.counter(
            "repro_node_jobs_reported_total",
            "Completions delivered to the coordinator")
        self.pool = SimulationPool(n_workers=workers, store=self.store,
                                   timeout=job_timeout_s, telemetry=True)
        self.capacity = self.pool.n_workers
        self.pool.on_event = self._pool_event
        # Pull-through replica of the coordinator's published traces,
        # rooted on the same shard the pool workers read: a prefetched
        # container means no worker in this node pays generation.
        self.traces = TraceStore(self.store.root / "traces", fetch=fetch)
        #: pool job id -> cluster job dict (id/key/spec/...).
        self._inflight: Dict[int, dict] = {}
        #: cluster job id -> buffered span events for the completion.
        self._span_buf: Dict[str, List[dict]] = {}
        #: undeliverable completion payloads, retried every step.
        self._outbox: List[dict] = []
        self._registered = False
        self._draining = False
        self._last_hb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.stats = {"leased": 0, "replica_served": 0, "reported": 0,
                      "report_retries": 0, "reregistrations": 0,
                      "traces_prefetched": 0}

    # -- replica fetch ---------------------------------------------------------

    def _fetch_envelope(self, key: str) -> Optional[dict]:
        """``GET /results/<key>`` from the coordinator; any failure is a
        miss (the job just simulates locally)."""
        try:
            return self.client.result(key)
        except (ServiceError, OSError):
            return None

    # -- pool span plumbing ----------------------------------------------------

    def _pool_event(self, pool_id: int, event: str, **attrs) -> None:
        job = self._inflight.get(pool_id)
        if job is None:
            return
        record = {"ev": event, "ts": round(time.time(), 6),
                  "node": self.node_id}
        record.update(attrs)
        self._span_buf.setdefault(job["id"], []).append(record)

    # -- protocol --------------------------------------------------------------

    def _snapshot(self) -> dict:
        return merge_snapshots([self.telemetry.snapshot()]
                               + self.pool.telemetry_snapshots())

    def register(self) -> None:
        self.client._request("/cluster/register",
                             payload={"node": self.node_id,
                                      "capacity": self.capacity,
                                      "workers": self.pool.alive_workers()})
        self._registered = True
        self._last_hb = time.monotonic()
        log_event(_LOG, "node.registered", node=self.node_id,
                  capacity=self.capacity)

    def _heartbeat(self) -> None:
        response = self.client._request(
            "/cluster/heartbeat",
            payload={"node": self.node_id,
                     "telemetry": self._snapshot(),
                     "workers": self.pool.alive_workers(),
                     "inflight": len(self._inflight)})
        self._last_hb = time.monotonic()
        self._draining = bool(response.get("draining"))

    def _lease(self) -> None:
        idle = self.capacity - len(self._inflight)
        if idle <= 0 or self._draining:
            return
        # Long-poll only when idle: with jobs in flight the pool tick
        # is the wait (a parked lease would delay their completions).
        response = self.client._request(
            "/cluster/lease",
            payload={"node": self.node_id, "max_jobs": idle,
                     "workers": self.pool.alive_workers(),
                     "wait_s": 0.0 if self._inflight
                     else self.lease_wait_s})
        self._last_hb = time.monotonic()
        for job in response.get("jobs", ()):
            self.stats["leased"] += 1
            self._m_leased.inc()
            spec = JobSpec(**job["spec"])
            record = (self.replica.get(job["key"])
                      if self.replica is not None else None)
            if record is not None:
                # Pull-through replication hit: no simulation at all.
                self.stats["replica_served"] += 1
                self._m_replica.inc()
                self._span_buf.setdefault(job["id"], []).append(
                    {"ev": "store_hit", "ts": round(time.time(), 6),
                     "node": self.node_id, "replica": True})
                self._queue_completion(job, record)
                continue
            self._prefetch_trace(spec)
            pool_id = self.pool.submit(spec)
            self._inflight[pool_id] = job
            if self.pool.done(pool_id):
                # Synchronous resolution (local store hit inside the
                # pool, or serial fallback) — report right away.
                self._finish(pool_id)

    def _prefetch_trace(self, spec: JobSpec) -> None:
        """Best-effort pull of the job's input trace from the
        coordinator into the shared on-disk cache (verified container
        bytes, never materialized here).  A miss means the first pool
        worker generates locally, exactly as before."""
        try:
            before = self.traces.stats["fetched"]
            self.traces.prefetch(spec.workload_profile(), spec.n_instrs)
            if self.traces.stats["fetched"] > before:
                self.stats["traces_prefetched"] += 1
        except Exception:
            pass  # malformed spec profile etc.: the worker will report

    def _queue_completion(self, job: dict, record: dict) -> None:
        self._outbox.append({
            "node": self.node_id, "job": job["id"], "key": job["key"],
            "record": record,
            "spans": self._span_buf.pop(job["id"], []),
        })

    def _finish(self, pool_id: int) -> None:
        job = self._inflight.pop(pool_id)
        record = self.pool.record(pool_id)
        self.pool.forget(pool_id)
        if record is None:  # cancelled mid-drain; coordinator redelivers
            return
        self._queue_completion(job, record)

    def _flush_outbox(self) -> None:
        while self._outbox:
            payload = dict(self._outbox[0])
            payload["telemetry"] = self._snapshot()
            try:
                self.client._request("/cluster/complete", payload=payload)
            except OSError:
                self.stats["report_retries"] += 1
                return  # coordinator unreachable; retry next step
            self._outbox.pop(0)
            self._last_hb = time.monotonic()
            self.stats["reported"] += 1
            self._m_completed.inc()

    # -- main loop -------------------------------------------------------------

    def step(self, block_s: float = 0.05) -> None:
        """One scheduling beat: heartbeat if due, lease up to idle
        capacity, pump the pool, report completions."""
        try:
            if not self._registered:
                self.register()
                self.stats["reregistrations"] += 1
            if time.monotonic() - self._last_hb >= self.heartbeat_s:
                self._heartbeat()
            self._lease()
        except ServiceError as exc:
            if exc.status in (404, 409, 410):
                # Coordinator restarted or declared us dead: start over.
                self._registered = False
                log_event(_LOG, "node.reregister", node=self.node_id,
                          status=exc.status)
            else:
                raise
        except OSError:
            self._stop.wait(min(self.heartbeat_s, 0.5))  # coordinator down
        self.pool.tick(block_s=block_s)
        for pool_id in [p for p in list(self._inflight)
                        if self.pool.done(p)]:
            self._finish(pool_id)
        self._flush_outbox()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.step()
            if self._draining and not self._inflight and not self._outbox:
                break

    def run(self) -> None:
        """Blocking: start the pool, serve until stopped, close."""
        self.pool.start()
        try:
            self._loop()
        finally:
            self.close()

    def start(self, coordinator_url: Optional[str] = None) -> None:
        """Start the pool and serve from a background thread (the local
        node; its first step registers).  Stop with :meth:`stop` +
        :meth:`join`, then :meth:`close`."""
        if coordinator_url is not None:
            self.client = ServiceClient(coordinator_url, timeout=30.0)
        self.pool.start()
        self._thread = threading.Thread(target=self._serve_in_thread,
                                        daemon=True,
                                        name=f"node-{self.node_id}")
        self._thread.start()

    def _serve_in_thread(self) -> None:
        """Thread body of the local node.  Its coordinator lives in the
        same process, so no one would see the thread end: an unexpected
        answer is logged and the node re-registers; any other failure is
        logged and closes the pool, so ``/healthz`` stops counting its
        workers."""
        while not self._stop.is_set():
            try:
                self._loop()
                return
            except ServiceError as exc:
                log_event(_LOG, "node.error", node=self.node_id,
                          status=exc.status, error=str(exc))
                self._registered = False
                self._stop.wait(min(self.heartbeat_s, 0.5))
            except Exception as exc:
                log_event(_LOG, "node.failed", node=self.node_id,
                          error=repr(exc))
                self.pool.close()
                return

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout_s: float = 30.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)

    def close(self) -> None:
        try:
            self.pool.close()
        finally:
            if self.client is not None:
                self.client.close()


def run_node(coordinator_url: str, store_dir,
             node_id: Optional[str] = None, workers: int = 1,
             heartbeat_s: float = 1.0,
             job_timeout_s: Optional[float] = None) -> ClusterNode:
    """Blocking CLI entry for ``repro serve --role node``.

    SIGTERM/SIGINT stop leasing, finish in-flight work, deliver the
    outbox and exit — the cluster analogue of the coordinator's drain.
    """
    node = ClusterNode(coordinator_url, store_dir, node_id=node_id,
                       workers=workers, heartbeat_s=heartbeat_s,
                       job_timeout_s=job_timeout_s)

    def _stop(signum, frame):
        node.stop()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _stop)
        except ValueError:  # not the main thread (tests)
            pass
    print(f"[node {node.node_id}] coordinator={coordinator_url} "
          f"workers={workers}", flush=True)
    node.run()
    print(f"[node {node.node_id}] stopped "
          f"(reported={node.stats['reported']})", flush=True)
    return node
