"""Multiprocessing worker pool for simulation jobs.

Fans :class:`~repro.service.jobs.JobSpec` jobs across long-lived worker
processes (each reusing a :class:`ResilientRunner`, so retry-with-reseed
and the bounded trace cache come along).  The parent keeps full control
by doing the dispatching itself: every worker has its own job queue and
holds at most one job at a time, recorded parent-side at assignment.  A
worker that dies — even so abruptly that none of its messages ever
flushed — therefore always has an identifiable casualty job.

* **Store integration** — a submitted job whose key is already in the
  result store completes instantly without touching a worker; freshly
  computed records are written back atomically.
* **Leases + heartbeats** — every assignment is a time-bounded lease
  (``lease_s``), renewed by heartbeat messages a worker thread sends
  every ``heartbeat_s`` while executing.  An expired lease escalates:
  first a *poll* (one grace interval for a late heartbeat — a hung
  worker is not the same thing as a dead worker), then the worker is
  terminated and a replacement spawns.
* **Bounded redelivery + dead-letter** — a job whose worker dies or
  whose lease is reclaimed goes back to the front of the backlog and is
  redelivered to a fresh worker, at most ``max_redeliveries`` times;
  beyond that it is a poison job and resolves to a ``dead_letter``
  record instead of taking more of the fleet down with it.
* **Per-job timeouts** — a job running past ``timeout`` seconds gets its
  worker terminated and is reported failed (``status: "timeout"``); too
  slow is a property of the job, not the worker, so it is not
  redelivered.
* **Degradation** — once ``max_worker_deaths`` total deaths accumulate
  the pool stops respawning and runs everything remaining serially in
  the parent.
* **Cancellation** — :meth:`cancel_pending` flushes every job still in
  the parent's backlog (i.e. not yet handed to a worker).
* **Journal hook** — given a :class:`~repro.service.journal.Journal`,
  the pool writes ``submitted`` / ``leased`` / ``done`` / ``failed`` /
  ``dead_letter`` records through it, so a crashed batch driver (e.g. a
  pooled sweep) can account for dispatched-but-unfinished work.

All coordination happens in :meth:`tick`, which the blocking helpers
(:meth:`wait`, :meth:`run_batch`) call in a loop and which a cluster
node calls from its own loop.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import get_logger, log_event
from repro.service import jobs as jobs_mod
from repro.service.jobs import JobSpec, execute_job, failure_record
from repro.service.store import ResultStore

_POISON = None

_LOG = get_logger("service.pool")


def _heartbeat_loop(result_q, job_id: int, pid: int, interval: float,
                    stop: "threading.Event") -> None:
    """Worker-side: renew the parent's lease while a job executes."""
    while not stop.wait(interval):
        try:
            result_q.put(("hb", job_id, pid, None, None, None, None))
        except (OSError, ValueError):
            return


def _worker_main(job_q, result_q, trace_dir=None,
                 heartbeat_s: Optional[float] = None,
                 telemetry: bool = False) -> None:
    """Worker loop: execute one spec at a time until the poison pill.

    Messages back to the parent are ``(kind, job_id, pid, payload,
    trace_evictions, trace_store, telemetry)`` tuples;
    ``trace_evictions`` is the cumulative eviction count of this
    process's runners, ``trace_store`` its shared-trace-cache counters
    (both for ``/stats``) and ``telemetry`` the worker's cumulative
    metrics-registry snapshot (``None`` unless the pool enabled worker
    telemetry).  A ``start`` message announces job pickup so the parent
    can stamp the ``started`` span event.  ``trace_dir`` roots the
    cross-process :class:`~repro.service.store.TraceStore` so workers
    share one generation of each synthetic trace.  While a job executes,
    a heartbeat thread renews the parent's lease every ``heartbeat_s``.
    """
    jobs_mod.IN_WORKER = True
    if trace_dir is not None:
        from repro.service.store import TraceStore
        jobs_mod.TRACE_STORE = TraceStore(trace_dir)
    if telemetry:
        from repro.obs.telemetry import MetricsRegistry
        jobs_mod.TELEMETRY = MetricsRegistry()
    pid = os.getpid()
    while True:
        item = job_q.get()
        if item is _POISON:
            result_q.put(("bye", -1, pid, None, jobs_mod.trace_evictions(),
                          jobs_mod.trace_store_stats(),
                          jobs_mod.telemetry_snapshot()))
            return
        job_id, spec, attempt = item
        # The SIGKILL test hook (in jobs.execute_job) exits hard right
        # after this point.  Announcing pickup first would risk dying
        # while the queue's feeder thread holds the shared write lock,
        # wedging every later worker's messages — so a delivery that is
        # about to die stays silent, exactly like a real crash landing
        # before any message flushed.
        will_die = attempt <= int(getattr(spec, "test_kill", 0) or 0)
        if not will_die:
            try:
                result_q.put(("start", job_id, pid, None, None, None, None))
            except (OSError, ValueError):
                pass  # parent gone; the job attempt below will fail loudly
        # Chaos/test hook: a first-delivery stall with heartbeats
        # suppressed, so the parent's lease provably expires and the
        # reclaim path redelivers the job.
        stall = float(getattr(spec, "test_stall_s", 0.0) or 0.0)
        if stall and attempt <= 1:
            time.sleep(stall)
        stop_hb = threading.Event()
        if heartbeat_s:
            threading.Thread(target=_heartbeat_loop,
                             args=(result_q, job_id, pid, heartbeat_s,
                                   stop_hb), daemon=True).start()
        try:
            record = execute_job(spec, attempt=attempt)
            stop_hb.set()
            result_q.put(("done", job_id, pid, record,
                          jobs_mod.trace_evictions(),
                          jobs_mod.trace_store_stats(),
                          jobs_mod.telemetry_snapshot()))
        except BaseException as exc:  # keep the worker loop alive
            stop_hb.set()
            result_q.put(("error", job_id, pid, repr(exc),
                          jobs_mod.trace_evictions(),
                          jobs_mod.trace_store_stats(),
                          jobs_mod.telemetry_snapshot()))


class SimulationPool:
    """Store-aware multiprocessing pool for simulation jobs."""

    def __init__(self, n_workers: Optional[int] = None,
                 store: Optional[ResultStore] = None,
                 timeout: Optional[float] = None,
                 max_worker_deaths: int = 6,
                 max_redeliveries: int = 2,
                 lease_s: float = 30.0,
                 heartbeat_s: Optional[float] = None,
                 journal=None,
                 telemetry: bool = False,
                 mp_context: Optional[str] = None) -> None:
        self.n_workers = max(1, n_workers if n_workers is not None
                             else (os.cpu_count() or 1))
        self.store = store
        self.timeout = timeout
        self.max_worker_deaths = max_worker_deaths
        self.max_redeliveries = max(0, max_redeliveries)
        self.lease_s = lease_s
        self.heartbeat_s = (heartbeat_s if heartbeat_s is not None
                            else max(lease_s / 4.0, 0.05))
        self.journal = journal
        #: Enables worker-local metrics registries (snapshots ride back
        #: on result messages and merge parent-side, losslessly).
        self.telemetry = telemetry
        #: Span-event hook: ``on_event(job_id, event, **attrs)`` fires
        #: for lifecycle moments only the pool can see (``started``,
        #: ``simulated``, ``stored``, ``lease_expired``, ``redelivered``,
        #: ``worker_died``, ``timeout``, ``store_hit``).  The service
        #: installs a translator that appends them to its SpanLog; a
        #: raising hook is swallowed — telemetry never breaks dispatch.
        self.on_event = None
        #: Directory of the shared cross-worker trace cache; riding under
        #: the result store's root keeps one content-addressed tree per
        #: service.  No store -> no sharing (workers regenerate locally).
        self._trace_dir = (str(store.root / "traces")
                           if store is not None else None)
        self._ctx = multiprocessing.get_context(mp_context)
        self._result_q = None
        self._workers: Dict[int, multiprocessing.Process] = {}
        #: pid -> that worker's private job queue (one job in flight max).
        self._worker_qs: Dict[int, object] = {}
        #: pid -> (job_id, assignment time) while a job is in flight.
        self._assigned: Dict[int, Tuple[int, float]] = {}
        #: pid -> monotonic deadline by which a heartbeat must arrive.
        self._lease_deadline: Dict[int, float] = {}
        #: pid -> end of the post-expiry grace poll (hung != dead).
        self._suspect: Dict[int, float] = {}
        self._started = False
        self._closed = False
        self._degraded = False
        self._cancelling = False
        self._seq = 0
        #: job ids submitted but not yet handed to a worker, FIFO.
        self._backlog: List[int] = []
        #: job_id -> spec for every job not yet resolved to a record.
        self._pending: Dict[int, JobSpec] = {}
        #: job_id -> deliveries so far (redelivery budget accounting).
        self._attempts: Dict[int, int] = {}
        self._records: Dict[int, dict] = {}
        self._keys: Dict[int, str] = {}
        self._evictions_by_pid: Dict[int, int] = {}
        #: pid -> latest shared-trace-cache counters from that worker.
        self._trace_stats_by_pid: Dict[int, dict] = {}
        #: pid -> latest cumulative metrics snapshot from that worker.
        #: Snapshots are cumulative per process, so keeping only the
        #: newest per pid and summing across pids is lossless.
        self._telemetry_by_pid: Dict[int, dict] = {}
        self.stats: Dict[str, int] = {
            "submitted": 0, "cached": 0, "dispatched": 0, "completed": 0,
            "failed": 0, "timeouts": 0, "worker_deaths": 0,
            "serial_fallbacks": 0, "cancelled": 0,
            "heartbeats": 0, "lease_expired": 0, "redeliveries": 0,
            "dead_lettered": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._result_q = self._ctx.Queue()
        for _ in range(self.n_workers):
            self._spawn_worker()
        self._started = True

    def _spawn_worker(self) -> None:
        job_q = self._ctx.Queue()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(job_q, self._result_q,
                                       self._trace_dir, self.heartbeat_s,
                                       self.telemetry),
                                 daemon=True)
        proc.start()
        self._workers[proc.pid] = proc
        self._worker_qs[proc.pid] = job_q

    def close(self) -> None:
        """Stop the workers (pending jobs are abandoned — wait first)."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for pid, job_q in self._worker_qs.items():
                if self._workers.get(pid) is not None \
                        and self._workers[pid].is_alive():
                    try:
                        job_q.put(_POISON)
                    except (OSError, ValueError):
                        pass
            deadline = time.monotonic() + 5.0
            for proc in self._workers.values():
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._drain_messages()
            for q in [self._result_q] + list(self._worker_qs.values()):
                q.close()
                q.cancel_join_thread()
        self._workers.clear()
        self._worker_qs.clear()
        self._assigned.clear()
        self._lease_deadline.clear()
        self._suspect.clear()

    def kill(self) -> None:
        """Chaos hook: SIGKILL-equivalent teardown.

        Terminates every worker immediately — no poison pills, no
        message draining, no journaling — simulating the whole process
        tree dying.  Only the journal and store contents survive, which
        is exactly what a crash-recovery test needs to exercise.
        """
        self._closed = True
        for proc in self._workers.values():
            try:
                proc.kill()
            except (AttributeError, OSError):
                proc.terminate()
        for proc in self._workers.values():
            proc.join(timeout=2.0)
        if self._started:
            for q in [self._result_q] + list(self._worker_qs.values()):
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):
                    pass
        self._workers.clear()
        self._worker_qs.clear()
        self._assigned.clear()
        self._lease_deadline.clear()
        self._suspect.clear()

    def __enter__(self) -> "SimulationPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def degraded(self) -> bool:
        """True once the pool gave up on workers and runs jobs serially."""
        return self._degraded

    def alive_workers(self) -> int:
        return sum(1 for p in self._workers.values() if p.is_alive())

    # -- journal hook ----------------------------------------------------------

    def _journal(self, type_: str, job_id: int, **fields) -> None:
        if self.journal is None:
            return
        try:
            # ``ts`` (schema 2) lets replay rebuild span timelines from
            # the lifecycle records themselves — no extra appends on the
            # hot path.
            self.journal.append(type_, job=f"pool-{job_id}",
                                key=self._keys.get(job_id),
                                ts=round(time.time(), 6), **fields)
        except OSError:  # journalling must never take down the batch
            pass

    def _emit(self, job_id: int, event: str, **attrs) -> None:
        """Fire a span event: the ``on_event`` hook (service-side
        SpanLog) plus, when the pool owns a journal, a durable ``span``
        record.  Only events with no lifecycle record of their own come
        through here; terminal transitions are covered by the
        ``done``/``failed``/``dead_letter`` records."""
        if self.on_event is not None:
            try:
                self.on_event(job_id, event, **attrs)
            except Exception:
                pass  # telemetry must never break dispatch
        if self.journal is not None:
            try:
                self.journal.append("span", job=f"pool-{job_id}", ev=event,
                                    ts=round(time.time(), 6), **attrs)
            except OSError:
                pass

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Queue one job; returns its pool-local job id.

        A store hit resolves the job immediately (no worker involved).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._seq += 1
        job_id = self._seq
        self.stats["submitted"] += 1
        key = spec.key() if self.store is not None else None
        self._keys[job_id] = key
        if key is not None:
            record = self.store.get(key)
            if record is not None:
                self._records[job_id] = record
                self.stats["cached"] += 1
                self._journal("submitted", job_id, label=spec.label(),
                              cached=True)
                if self.on_event is not None:
                    self._emit(job_id, "store_hit")
                return job_id
        self._journal("submitted", job_id, label=spec.label())
        self._pending[job_id] = spec
        self._attempts[job_id] = 0
        if self._degraded:
            self._run_serial(job_id, spec)
            return job_id
        self.start()
        self._cancelling = False
        self._backlog.append(job_id)
        self._maybe_respawn()
        self._assign_backlog()
        return job_id

    def cancel_pending(self) -> None:
        """Flush every job that has not been handed to a worker."""
        self._cancelling = True
        for job_id in list(self._backlog):
            self._resolve_cancelled(job_id)
        self._backlog.clear()

    # -- status ----------------------------------------------------------------

    def done(self, job_id: int) -> bool:
        return job_id in self._records

    def record(self, job_id: int) -> Optional[dict]:
        return self._records.get(job_id)

    def forget(self, job_id: int) -> None:
        """Drop a resolved job's record once the caller has taken it (a
        long-running node would otherwise keep every record)."""
        self._records.pop(job_id, None)
        self._keys.pop(job_id, None)
        self._attempts.pop(job_id, None)

    def status(self, job_id: int) -> str:
        if job_id in self._records:
            record = self._records[job_id]
            if record.get("status") == "dead_letter":
                return "dead_letter"
            return "failed" if record.get("failed") else "done"
        if any(job == job_id for job, _ in self._assigned.values()):
            return "running"
        if job_id in self._pending:
            return "queued"
        return "unknown"

    def dead_letters(self) -> List[dict]:
        """Every dead-letter record resolved so far."""
        return [dict(r, job_id=job_id) for job_id, r in self._records.items()
                if r.get("status") == "dead_letter"]

    def stats_snapshot(self) -> dict:
        snapshot = dict(self.stats)
        snapshot["trace_evictions"] = sum(self._evictions_by_pid.values())
        trace_store = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                       "fetched": 0, "quarantined": 0}
        for per_worker in self._trace_stats_by_pid.values():
            for name in trace_store:
                trace_store[name] += per_worker.get(name, 0)
        snapshot["trace_store"] = trace_store
        snapshot["workers"] = self.alive_workers()
        snapshot["degraded"] = self._degraded
        snapshot["pending"] = len(self._pending)
        snapshot["leases"] = len(self._assigned)
        return snapshot

    def telemetry_snapshots(self) -> List[dict]:
        """Latest cumulative metrics snapshot per worker process.

        Merge with the parent's registry via
        :func:`repro.obs.telemetry.merge_snapshots` for a fabric-wide
        view; snapshots of dead workers are retained, so their final
        counts are never lost."""
        return list(self._telemetry_by_pid.values())

    # -- the event loop --------------------------------------------------------

    def tick(self, block_s: float = 0.05) -> None:
        """One scheduling step: collect results, enforce deadlines and
        leases, reap dead workers, hand out backlog, degrade when the
        fleet is gone."""
        self._drain_messages(block_s if self._pending else 0.0)
        self._enforce_timeouts()
        self._enforce_leases()
        self._reap_dead_workers()
        if self._pending and not self._degraded and not self.alive_workers():
            self._degraded = True
            log_event(_LOG, "pool.degraded",
                      deaths=self.stats["worker_deaths"])
        if self._degraded:
            self._run_backlog_serially()
        else:
            self._assign_backlog()

    def wait(self, job_ids: Optional[Sequence[int]] = None,
             deadline_s: Optional[float] = None) -> None:
        """Block until the given jobs (default: all) are resolved."""
        target = set(job_ids) if job_ids is not None else None
        start = time.monotonic()
        while True:
            unresolved = (self._pending if target is None
                          else target & set(self._pending))
            if not unresolved:
                return
            if (deadline_s is not None
                    and time.monotonic() - start > deadline_s):
                raise TimeoutError(
                    f"{len(unresolved)} job(s) unresolved after "
                    f"{deadline_s}s")
            self.tick()

    def run_batch(self, specs: Sequence[JobSpec]) -> List[dict]:
        """Submit ``specs``, wait for all, return records in order."""
        ids = [self.submit(spec) for spec in specs]
        self.wait(ids)
        return [self._records[job_id] for job_id in ids]

    # -- internals -------------------------------------------------------------

    def _assign_backlog(self) -> None:
        """Hand backlog jobs to idle workers (parent-side dispatch)."""
        if not self._started or self._cancelling:
            return
        for pid, proc in self._workers.items():
            if not self._backlog:
                return
            if pid in self._assigned or not proc.is_alive():
                continue
            job_id = self._backlog.pop(0)
            if job_id not in self._pending:  # already resolved (cancel)
                continue
            attempt = self._attempts.get(job_id, 0) + 1
            self._attempts[job_id] = attempt
            self._worker_qs[pid].put((job_id, self._pending[job_id], attempt))
            now = time.monotonic()
            self._assigned[pid] = (job_id, now)
            self._lease_deadline[pid] = now + self.lease_s
            self._suspect.pop(pid, None)
            self.stats["dispatched"] += 1
            self._journal("leased", job_id, attempt=attempt, pid=pid)

    def _drain_messages(self, block_s: float = 0.0) -> None:
        if self._result_q is None:
            return
        block = block_s > 0.0
        while True:
            try:
                msg = self._result_q.get(timeout=block_s) if block \
                    else self._result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            block = False  # only block for the first message per tick
            kind, job_id, pid, payload, evictions, trace_stats, tel = msg
            if evictions is not None:
                self._evictions_by_pid[pid] = evictions
            if trace_stats is not None:
                self._trace_stats_by_pid[pid] = trace_stats
            if tel is not None:
                self._telemetry_by_pid[pid] = tel
            if pid in self._assigned:
                # Any sign of life renews the lease and clears suspicion.
                self._lease_deadline[pid] = time.monotonic() + self.lease_s
                self._suspect.pop(pid, None)
            if kind == "hb":
                self.stats["heartbeats"] += 1
            elif kind == "start":
                self._emit(job_id, "started", pid=pid)
            elif kind == "done":
                self._assigned.pop(pid, None)
                self._lease_deadline.pop(pid, None)
                self._emit(job_id, "simulated", pid=pid)
                self._resolve(job_id, payload)
            elif kind == "error":
                self._assigned.pop(pid, None)
                self._lease_deadline.pop(pid, None)
                spec = self._pending.get(job_id)
                if spec is not None:
                    self._resolve(job_id, failure_record(
                        spec, f"worker error: {payload}"))
            # "bye" only carries the final eviction count.

    def _resolve(self, job_id: int, record: dict) -> None:
        if job_id not in self._pending:  # resolved (or forgotten) already
            return
        self._pending.pop(job_id, None)
        self._records[job_id] = record
        if record.get("status") == "dead_letter":
            self.stats["dead_lettered"] += 1
            self._journal("dead_letter", job_id, error=record.get("error"))
        elif record.get("failed"):
            self.stats["failed"] += 1
            self._journal("failed", job_id, error=record.get("error"))
        else:
            self.stats["completed"] += 1
            key = self._keys.get(job_id)
            if self.store is not None and key is not None:
                self.store.put(key, record)
                self._emit(job_id, "stored")
            self._journal("done", job_id)

    def _resolve_cancelled(self, job_id: int) -> None:
        spec = self._pending.get(job_id)
        if spec is None:
            return
        self._pending.pop(job_id, None)
        self._records[job_id] = failure_record(spec, "cancelled",
                                               status="cancelled")
        self.stats["cancelled"] += 1
        self._journal("failed", job_id, error="cancelled")

    def _redeliver_or_dead_letter(self, job_id: int, cause: str) -> None:
        """A delivery was lost (dead worker / reclaimed lease): hand the
        job to a fresh worker unless its redelivery budget is spent."""
        spec = self._pending.get(job_id)
        if spec is None:
            return
        attempts = self._attempts.get(job_id, 0)
        if attempts > self.max_redeliveries:
            log_event(_LOG, "pool.dead_letter", job=f"pool-{job_id}",
                      trace=getattr(spec, "trace_id", None),
                      attempts=attempts, cause=cause)
            self._resolve(job_id, failure_record(
                spec, f"dead-lettered after {attempts} deliveries "
                      f"(last: {cause})", status="dead_letter"))
            return
        self.stats["redeliveries"] += 1
        self._emit(job_id, "redelivered", cause=cause, attempt=attempts)
        self._backlog.insert(0, job_id)

    def _enforce_timeouts(self) -> None:
        if not self.timeout:
            return
        now = time.monotonic()
        for pid in list(self._assigned):
            job_id, started = self._assigned[pid]
            if now - started <= self.timeout:
                continue
            proc = self._workers.get(pid)
            if proc is not None:
                proc.terminate()
                proc.join(timeout=1.0)
                self._retire_worker(pid)
            self._assigned.pop(pid, None)
            self._lease_deadline.pop(pid, None)
            self._suspect.pop(pid, None)
            spec = self._pending.get(job_id)
            if spec is not None:
                self.stats["timeouts"] += 1
                self._emit(job_id, "timeout", limit_s=self.timeout)
                self._resolve(job_id, failure_record(
                    spec, f"timed out after {self.timeout}s",
                    status="timeout"))
            self._maybe_respawn()

    def _enforce_leases(self) -> None:
        """Reclaim jobs whose lease expired: poll -> terminate -> respawn.

        A lease expiry means no heartbeat arrived in time.  The worker
        gets one grace interval first (``suspect``) — a late heartbeat
        clears it — then is terminated, its job redelivered (or
        dead-lettered), and a replacement spawned.
        """
        if not self.lease_s:
            return
        now = time.monotonic()
        for pid in list(self._assigned):
            deadline = self._lease_deadline.get(pid)
            if deadline is None or now <= deadline:
                continue
            proc = self._workers.get(pid)
            if proc is None or not proc.is_alive():
                continue  # dead, not hung: the reaper owns this pid
            grace_until = self._suspect.get(pid)
            if grace_until is None:
                # Poll first: give one heartbeat interval of grace.
                self._suspect[pid] = now + self.heartbeat_s
                continue
            if now <= grace_until:
                continue
            # Still silent after the grace poll: reclaim.
            self.stats["lease_expired"] += 1
            log_event(_LOG, "pool.lease_expired", pid=pid,
                      job=f"pool-{self._assigned[pid][0]}")
            proc.terminate()
            proc.join(timeout=1.0)
            self._retire_worker(pid)
            job_id, _ = self._assigned.pop(pid)
            self._emit(job_id, "lease_expired", pid=pid)
            self._lease_deadline.pop(pid, None)
            self._suspect.pop(pid, None)
            self._redeliver_or_dead_letter(job_id, "lease expired")
            self._maybe_respawn()

    def _retire_worker(self, pid: int) -> None:
        self._workers.pop(pid, None)
        job_q = self._worker_qs.pop(pid, None)
        if job_q is not None:
            job_q.close()
            job_q.cancel_join_thread()

    def _reap_dead_workers(self) -> None:
        for pid in list(self._workers):
            if self._workers[pid].is_alive():
                continue
            self._retire_worker(pid)
            if self._closed:
                continue
            self.stats["worker_deaths"] += 1
            log_event(_LOG, "pool.worker_died", pid=pid,
                      deaths=self.stats["worker_deaths"])
            died_with = self._assigned.pop(pid, None)
            self._lease_deadline.pop(pid, None)
            self._suspect.pop(pid, None)
            if died_with is not None:
                # The assignment map is parent-side state, so the
                # casualty is known even if the worker died before any
                # message flushed.  Redeliver to a fresh worker within
                # the bounded budget; a repeat offender is poison and
                # dead-letters instead of killing the whole fleet.
                self._emit(died_with[0], "worker_died", pid=pid)
                self._redeliver_or_dead_letter(died_with[0], "worker died")
            self._maybe_respawn()

    def _maybe_respawn(self) -> None:
        if (self._closed or self._degraded
                or self.stats["worker_deaths"] >= self.max_worker_deaths):
            return
        while len(self._workers) < self.n_workers and self._pending:
            self._spawn_worker()

    def _run_backlog_serially(self) -> None:
        for job_id in list(self._backlog):
            if self._cancelling:
                self._resolve_cancelled(job_id)
            elif job_id in self._pending:
                self._run_serial(job_id, self._pending[job_id])
        self._backlog.clear()

    def _run_serial(self, job_id: int, spec: JobSpec) -> None:
        """Execute one job in the parent process (degraded mode)."""
        self.stats["serial_fallbacks"] += 1
        try:
            record = execute_job(spec)
        except Exception as exc:  # pragma: no cover - defensive
            record = failure_record(spec, f"serial execution failed: {exc!r}")
        self._resolve(job_id, record)
