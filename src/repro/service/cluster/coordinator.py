"""The job service: one coordinator state machine behind the front door.

:class:`ClusterService` owns the job registry, the bounded priority
queue, the write-ahead journal and the telemetry plane.  Jobs are
**leased to registered worker nodes** that pull work over HTTP (the
transport lives in :mod:`~repro.service.cluster.frontdoor`; this module
is pure state behind one lock, directly drivable by tests).
``repro serve`` adds one in-process *local node*, run by the front
door; this module sees only that node's worker pool
(:attr:`ClusterService.pool`), for the ``/stats``, ``/metrics`` and
``/healthz`` numbers.  ``--role coordinator`` has remote nodes only.

Design points:

* **Node roster + heartbeats** — nodes register with a capacity and
  heartbeat periodically; any authenticated-by-id message (heartbeat,
  lease, completion) renews liveness.  A silent node is marked
  ``suspect`` after ``suspect_after_s`` (visible in ``/healthz`` and
  ``/stats`` before anything is reclaimed), then ``dead`` after
  ``dead_after_s``, at which point its leases are reclaimed and the
  jobs redelivered to surviving nodes — within the same bounded
  redelivery budget the pool uses, so a poison job dead-letters instead
  of hopping the fleet forever.
* **Journal-backed redelivery** — every state transition is journaled
  before it is acknowledged (``leased`` records carry the node id), so
  a coordinator crash recovers from the journal alone:
  terminal jobs keep their state, store-hit jobs complete with zero
  re-simulation, everything else re-enters the queue.  Node leases do
  not survive a restart — but a node that finishes an orphaned job
  still reports it, and the first completion wins (late duplicates are
  idempotent no-ops; the store write is byte-identical either way).
* **Cross-sweep dedup** — the content-addressed store is the dedup
  authority: a submission whose key is stored completes instantly,
  whichever node computed it for whomever.  Submissions racing *ahead*
  of a result coalesce in flight: the second client's job attaches to
  the primary job with the same key and resolves with it, so
  overlapping sweeps from different clients cost one simulation.
* **Telemetry across the wire** — nodes attach span events (started /
  simulated / stored, stamped with the node id) and cumulative metric
  snapshots to their messages; the coordinator folds them into its
  SpanLog and ``/metrics``, so a remote node is as observable as the
  local one.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.obs.telemetry import (MetricsRegistry, SpanLog, fold_spans,
                                 get_logger, log_event, merge_snapshots,
                                 new_trace_id, render_prometheus)
from repro.service.journal import TERMINAL_STATES, Journal, fold_jobs
from repro.service.jobs import JobSpec
from repro.service.store import (ResultStore, trace_key,
                                 trace_wire_record)

_LOG = get_logger("service.cluster")

#: Node liveness states, in escalation order.
NODE_STATES = ("alive", "suspect", "dead")

#: Pool span events counted in ``repro_lease_events_total``.
LEASE_EVENTS = ("lease_expired", "redelivered", "worker_died", "timeout")

#: Node id of the in-process node ``repro serve`` runs.
LOCAL_NODE_ID = "local"

#: Priority used when a submission does not specify one.
DEFAULT_PRIORITY = 100

#: Version tag of the ``GET /stats`` payload.  Schema 2 namespaced the
#: pool snapshot (``counters`` / ``trace`` / topology keys) and added
#: the ``telemetry`` section.
STATS_SCHEMA = 2


class QueueFullError(Exception):
    """The bounded submission queue is at capacity."""


class DrainingError(Exception):
    """The service is draining and accepts no new jobs."""


class UnknownNodeError(Exception):
    """Message from a node the coordinator does not (or no longer)
    trusts — it must re-register before leasing again."""


class ClusterService:
    """Job registry + node roster behind one lock (no sockets here)."""

    def __init__(self, store: ResultStore,
                 max_queue: int = 64,
                 journal: Optional[Journal] = None,
                 telemetry: bool = True,
                 suspect_after_s: float = 5.0,
                 dead_after_s: float = 15.0,
                 max_redeliveries: int = 2) -> None:
        self.store = store
        self.max_queue = max_queue
        self.journal = journal
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = max(dead_after_s, suspect_after_s)
        self.max_redeliveries = max(0, max_redeliveries)
        self.telemetry: Optional[MetricsRegistry] = \
            MetricsRegistry() if telemetry else None
        self.spans: Optional[SpanLog] = SpanLog() if telemetry else None
        if telemetry:
            t = self.telemetry
            self._m_submitted = t.counter(
                "repro_jobs_submitted_total", "Jobs accepted at POST /jobs")
            self._m_cached = t.counter(
                "repro_jobs_cached_total",
                "Submissions served instantly from the result store")
            self._m_coalesced = t.counter(
                "repro_jobs_coalesced_total",
                "Submissions attached to an identical in-flight job")
            self._m_queue_wait = t.histogram(
                "repro_queue_wait_seconds",
                "Seconds between submit ack and node lease")
            self._m_run = t.histogram(
                "repro_job_run_seconds",
                "Seconds between node lease and terminal state")
        self._lock = threading.RLock()
        self._jobs: Dict[str, dict] = {}
        self._seq = 0
        #: (priority, seq, job_id) min-heap; resolved entries are skipped
        #: lazily at lease time (cheap tombstoning, no heap surgery).
        self._queue: List[tuple] = []
        self._queued = 0  # live (non-tombstone) heap entries
        #: key -> primary in-flight job id (in-flight coalescing).
        self._inflight_keys: Dict[str, str] = {}
        #: primary job id -> job ids riding on its outcome.
        self._attached: Dict[str, List[str]] = {}
        #: node id -> roster entry (state, liveness, lease set, telemetry).
        self._nodes: Dict[str, dict] = {}
        self._draining = False
        self.counters: Dict[str, int] = {
            "submitted": 0, "cached": 0, "coalesced": 0, "dispatched": 0,
            "completed": 0, "failed": 0, "dead_lettered": 0,
            "redeliveries": 0, "duplicate_completions": 0,
            "nodes_registered": 0, "node_deaths": 0, "heartbeats": 0,
        }
        self.recovery: Dict[str, int] = {
            "replayed": 0, "recovered_done": 0, "recovered_terminal": 0,
            "requeued": 0, "lost": 0,
        }
        self.scrub_report: Optional[dict] = None
        #: Worker pool of the local node (node id ``LOCAL_NODE_ID``),
        #: set by the front door that runs it; read for numbers only.
        self.pool = None
        #: Front-door hooks (fired OUTSIDE the lock): a job turned
        #: terminal (wake its long-pollers) / work became leasable
        #: (wake parked lease requests) / a node changed state
        #: (roster line on stdout).  All optional, all non-throwing.
        self.on_terminal: Optional[Callable[[str], None]] = None
        self.on_enqueued: Optional[Callable[[], None]] = None
        self.on_node_event: Optional[Callable[[str, str], None]] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self.journal is not None:
            self.recover()

    def stop(self) -> None:
        if self.journal is not None:
            self.journal.close()

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        self._journal_append("drain")

    def drain(self, timeout_s: Optional[float] = 30.0) -> bool:
        """Wait until no job is leased to a node (queued work stays
        journaled for the next start)."""
        self.begin_drain()
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while True:
            with self._lock:
                leased = any(e["status"] == "running"
                             for e in self._jobs.values())
            if not leased:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.05)

    # -- journal + spans -------------------------------------------------------

    def _journal_append(self, type_: str, **fields) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append(type_, **fields)
        except OSError:  # journalling must never take down the service
            pass

    def _span(self, job_id: str, event: str, trace: Optional[str] = None,
              ts: Optional[float] = None, durable: bool = False,
              **attrs) -> Optional[dict]:
        if self.spans is None:
            return None
        rec = self.spans.append(job_id, event, trace=trace, ts=ts, **attrs)
        if rec is not None and durable:
            self._journal_append("span", job=job_id, ev=event,
                                 ts=rec["ts"], trace=trace, **attrs)
        return rec

    def _terminal_metric(self, status: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(
                "repro_jobs_terminal_total",
                "Jobs reaching a terminal state, by status",
                status=status).inc()

    # -- recovery --------------------------------------------------------------

    def recover(self) -> None:
        """Replay the journal: terminal jobs keep their state, store-hit
        jobs complete with zero re-simulation (the store is the dedup
        authority), the rest re-enter the queue.  Node leases never
        survive a restart — a ``leased`` job whose node is gone requeues;
        if its old node still finishes it, the first completion wins.
        The journal is then compacted down to the live jobs."""
        assert self.journal is not None
        records = list(self.journal.records())
        folded = fold_jobs(records)
        if self.spans is not None:
            fold_spans(records, self.spans)
        live: list = []
        for job_id, state in folded.items():
            self.recovery["replayed"] += 1
            if job_id.startswith("job-"):
                try:
                    self._seq = max(self._seq, int(job_id[4:]))
                except ValueError:
                    pass
            entry = {"id": job_id, "key": state["key"],
                     "priority": state["priority"], "recovered": True}
            spec_dict = state.get("spec")
            spec = None
            if isinstance(spec_dict, dict):
                try:
                    spec = JobSpec(**spec_dict)
                except TypeError:
                    spec = None
            if spec is not None:
                entry["core"] = spec.core.get("name")
                entry["app"] = spec.profile.get("name")
            if state["status"] in TERMINAL_STATES:
                entry["status"] = state["status"]
                if state["status"] == "done":
                    entry["cached"] = state["cached"]
                    self.recovery["recovered_done"] += 1
                else:
                    entry["error"] = state.get("error")
                    self.recovery["recovered_terminal"] += 1
                self._jobs[job_id] = entry
                continue
            key = state["key"]
            if key is not None and self.store.get(key) is not None:
                entry["status"] = "done"
                entry["cached"] = True
                self._jobs[job_id] = entry
                self.recovery["recovered_done"] += 1
                self._span(job_id, "completed", trace=state.get("trace"),
                           cached=True, recovered=True)
                continue
            if spec is None:
                entry["status"] = "failed"
                entry["error"] = "lost on recovery: spec unrecoverable"
                self._jobs[job_id] = entry
                self.recovery["lost"] += 1
                continue
            entry["status"] = "queued"
            entry["spec"] = spec
            entry["attempts"] = 0
            self._jobs[job_id] = entry
            self._push_queue(state["priority"], job_id)
            if key is not None:
                self._inflight_keys.setdefault(key, job_id)
            self.recovery["requeued"] += 1
            self._span(job_id, "recovered", trace=state.get("trace"))
            live.append({"t": "submitted", "job": job_id, "key": key,
                         "spec": spec_dict, "priority": state["priority"],
                         "ts": state.get("ts"), "trace": state.get("trace")})
        if self.spans is not None:
            # Spans of compacted jobs stay queryable as ``span`` records.
            requeued = {s["job"] for s in live}
            for job_id, span in self.spans.spans().items():
                if job_id in requeued:
                    continue
                for event in span["events"]:
                    attrs = {k: v for k, v in event.items()
                             if k not in ("ev", "ts")}
                    live.append({"t": "span", "job": job_id,
                                 "ev": event["ev"], "ts": event["ts"],
                                 "trace": span.get("trace"), **attrs})
        self.journal.compact(live)
        log_event(_LOG, "cluster.recovered", **self.recovery)

    # -- queue helpers (call with the lock held) -------------------------------

    def _push_queue(self, priority: int, job_id: str) -> None:
        self._seq_tiebreak = getattr(self, "_seq_tiebreak", 0) + 1
        heapq.heappush(self._queue, (priority, self._seq_tiebreak, job_id))
        self._queued += 1

    def _pop_queued(self) -> Optional[dict]:
        """Next genuinely-queued entry, skipping tombstones."""
        while self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            entry = self._jobs.get(job_id)
            if entry is not None and entry["status"] == "queued":
                self._queued -= 1
                return entry
        self._queued = 0
        return None

    # -- client side: submission -----------------------------------------------

    def publish_trace(self, profile, n_instrs: int, trace) -> str:
        """Publish one generated input trace for pull-through replication.

        The trace rides the ordinary result namespace: a binary codec
        container wrapped in a JSON wire record, stored under its
        content-address key, served raw by ``GET /results/<key>``.
        Nodes prefetch it through the same verify-then-cache path as
        result records, so every worker in the fleet skips generation.
        ``trace`` is the instruction stream or pre-encoded container
        bytes; returns the trace key.
        """
        key = trace_key(profile, n_instrs)
        self.store.put(key, trace_wire_record(key, trace))
        return key

    def submit(self, spec: JobSpec,
               priority: int = DEFAULT_PRIORITY) -> dict:
        if self._draining:
            raise DrainingError("service is draining; retry against the "
                                "next instance")
        key = spec.key()
        traced = self.spans is not None
        trace = new_trace_id() if traced else None
        now = round(time.time(), 6)
        if traced:
            spec.trace_id = trace
        with self._lock:
            self._seq += 1
            job_id = f"job-{self._seq}"
            entry = {"id": job_id, "status": "queued", "key": key,
                     "core": spec.core.get("name"),
                     "app": spec.profile.get("name"),
                     "priority": priority, "spec": spec,
                     "attempts": 0, "_ts_submitted": now}
            if traced:
                entry["trace"] = trace
            if self.telemetry is not None:
                self._m_submitted.inc()
            self.counters["submitted"] += 1
            if key in self.store and self.store.get(key) is not None:
                # Cross-sweep dedup, completed flavour: whichever node
                # computed this key for whichever client, it is done.
                entry["status"] = "done"
                entry["cached"] = True
                del entry["spec"]  # only queued and leased jobs need it
                self._jobs[job_id] = entry
                self.counters["cached"] += 1
                self._journal_submitted(entry, now, now, cached=True)
                self._span(job_id, "store_hit", ts=now)
                self._span(job_id, "completed", ts=now, cached=True)
                if self.telemetry is not None:
                    self._m_cached.inc()
                self._terminal_metric("done")
                return self._public(entry)
            primary = self._inflight_keys.get(key)
            if primary is not None and primary in self._jobs \
                    and self._jobs[primary]["status"] in ("queued",
                                                          "running"):
                # Cross-sweep dedup, racing flavour: attach to the
                # identical in-flight job instead of simulating twice.
                entry["status"] = self._jobs[primary]["status"]
                entry["coalesced_into"] = primary
                self._jobs[job_id] = entry
                self._attached.setdefault(primary, []).append(job_id)
                self.counters["coalesced"] += 1
                self._journal_submitted(entry, now, now,
                                        spec=dataclasses.asdict(spec))
                self._span(job_id, "coalesced", ts=now, into=primary,
                           durable=True)
                if self.telemetry is not None:
                    self._m_coalesced.inc()
                return self._public(entry)
            if self._queued >= self.max_queue:
                self._terminal_metric("failed")
                raise QueueFullError(
                    f"queue full ({self.max_queue} jobs); retry later")
            self._jobs[job_id] = entry
            self._inflight_keys[key] = job_id
            self._journal_submitted(entry, now, None,
                                    spec=dataclasses.asdict(spec))
            self._push_queue(priority, job_id)
            public = self._public(entry)
        self._fire_enqueued()
        return public

    def _journal_submitted(self, entry: dict, ts: float,
                           journaled_ts: Optional[float], **fields) -> None:
        """Journal one submission *before* it is acknowledged (a crash
        after the 202 can never lose it) and open its span."""
        job_id, trace = entry["id"], entry.get("trace")
        self._journal_append("submitted", job=job_id, key=entry["key"],
                             priority=entry["priority"], ts=ts, trace=trace,
                             **fields)
        self._span(job_id, "submitted", trace=trace, ts=ts,
                   priority=entry["priority"])
        self._span(job_id, "journaled", ts=journaled_ts)

    # -- node side: registration, heartbeats, leases, completions --------------

    def register_node(self, node_id: str, capacity: int = 1,
                      meta: Optional[dict] = None,
                      workers: Optional[int] = None) -> dict:
        """(Re-)register a worker node.  Idempotent; a returning node
        (after a coordinator restart or its own) starts with a clean
        lease set — any jobs its previous incarnation held were either
        reclaimed or will resolve via first-completion-wins.  ``workers``
        (live pool workers, default: capacity) is kept current by
        heartbeats and lease requests."""
        now = time.monotonic()
        with self._lock:
            fresh = node_id not in self._nodes \
                or self._nodes[node_id]["state"] == "dead"
            self._nodes[node_id] = {
                "id": node_id, "state": "alive",
                "capacity": max(1, int(capacity)),
                "workers": int(capacity if workers is None else workers),
                "registered_at": round(time.time(), 6),
                "last_hb": now,
                "leased": set(), "completed": 0, "telemetry": None,
                "meta": dict(meta or {}),
            }
            if fresh:
                self.counters["nodes_registered"] += 1
        self._journal_append("node", node=node_id, event="registered",
                             capacity=capacity, ts=round(time.time(), 6))
        log_event(_LOG, "cluster.node_registered", node=node_id,
                  capacity=capacity)
        self._fire_node_event(node_id, "registered")
        return {"node": node_id, "suspect_after_s": self.suspect_after_s,
                "dead_after_s": self.dead_after_s}

    def _touch_node(self, node_id: str,
                    telemetry: Optional[dict] = None,
                    workers: Optional[int] = None) -> dict:
        """Renew liveness for any authenticated node message (lock held).
        Raises :class:`UnknownNodeError` for unregistered/dead nodes."""
        node = self._nodes.get(node_id)
        if node is None or node["state"] == "dead":
            raise UnknownNodeError(f"unknown node {node_id!r}; re-register")
        node["last_hb"] = time.monotonic()
        if node["state"] == "suspect":
            node["state"] = "alive"
            self._fire_node_event(node_id, "recovered")
        if telemetry is not None:
            node["telemetry"] = telemetry
        if workers is not None:
            node["workers"] = int(workers)
        return node

    def heartbeat(self, node_id: str,
                  telemetry: Optional[dict] = None,
                  workers: Optional[int] = None) -> dict:
        with self._lock:
            node = self._touch_node(node_id, telemetry, workers)
            self.counters["heartbeats"] += 1
            return {"node": node_id, "state": node["state"],
                    "draining": self._draining}

    def try_lease(self, node_id: str, max_jobs: int = 1,
                  workers: Optional[int] = None) -> List[dict]:
        """Hand up to ``max_jobs`` queued jobs to ``node_id``.

        Returns wire-ready job dicts (id, key, spec, priority, attempt).
        Leasing renews the node's liveness; every lease is journaled
        with the node id before the jobs leave the building."""
        leases: List[dict] = []
        with self._lock:
            node = self._touch_node(node_id, workers=workers)
            if self._draining:
                return []
            while len(leases) < max(1, int(max_jobs)):
                entry = self._pop_queued()
                if entry is None:
                    break
                now = round(time.time(), 6)
                entry["status"] = "running"
                entry["node"] = node_id
                entry["attempts"] = entry.get("attempts", 0) + 1
                entry["_ts_leased"] = now
                node["leased"].add(entry["id"])
                self.counters["dispatched"] += 1
                self._journal_append("leased", job=entry["id"], ts=now,
                                     attempt=entry["attempts"],
                                     node=node_id)
                self._span(entry["id"], "leased", ts=now,
                           attempt=entry["attempts"], node=node_id)
                if self.telemetry is not None:
                    submitted = entry.get("_ts_submitted")
                    if submitted is not None:
                        self._m_queue_wait.observe(max(0.0, now - submitted))
                spec = entry["spec"]
                leases.append({"id": entry["id"], "key": entry["key"],
                               "spec": dataclasses.asdict(spec),
                               "priority": entry["priority"],
                               "attempt": entry["attempts"],
                               "trace": entry.get("trace")})
        return leases

    def complete(self, node_id: str, job_id: str, record: dict,
                 span_events: Optional[List[dict]] = None,
                 telemetry: Optional[dict] = None,
                 key: Optional[str] = None) -> dict:
        """A node reports one finished job (result record + span events
        + its cumulative telemetry snapshot).

        First completion wins: if the job is already terminal (a slower
        duplicate after redelivery, or a recovered orphan) the call is
        an idempotent no-op — except that a valid ``done`` record is
        still written to the store, which is byte-identical anyway.
        Unknown nodes may complete: work is work, and refusing it would
        waste a finished simulation."""
        terminal_jobs: List[str] = []
        with self._lock:
            node = self._nodes.get(node_id)
            if node is not None and node["state"] != "dead":
                self._touch_node(node_id, telemetry)
            elif node is not None and telemetry is not None:
                node["telemetry"] = telemetry
            entry = self._jobs.get(job_id)
            status = self._record_status(record)
            if entry is not None:
                key = entry.get("key") or key
            if status == "done" and key is not None \
                    and key not in self.store:
                # Store write first: the content-addressed store is the
                # dedup authority for every later sweep.  (The local
                # node shares this store, so its results are in already.)
                self.store.put(key, record)
            if entry is None or entry["status"] in TERMINAL_STATES:
                self.counters["duplicate_completions"] += 1
                if node is not None:
                    node["leased"].discard(job_id)
                return {"accepted": False, "duplicate": True}
            now = round(time.time(), 6)
            node_stored = False
            for ev in span_events or ():
                if isinstance(ev, dict) and ev.get("ev"):
                    node_stored |= ev["ev"] == "stored"
                    attrs = {k: v for k, v in ev.items()
                             if k not in ("ev", "ts")}
                    attrs.setdefault("node", node_id)
                    self._span(job_id, ev["ev"], ts=ev.get("ts"),
                               durable=True, **attrs)
                    if self.telemetry is not None \
                            and ev["ev"] in LEASE_EVENTS:
                        self.telemetry.counter(
                            "repro_lease_events_total",
                            "Lease reclaims, redeliveries and worker "
                            "deaths by kind", event=ev["ev"]).inc()
            self._resolve(entry, status, record, now, node_id,
                          node_stored=node_stored)
            terminal_jobs.append(job_id)
            if node is not None:
                node["leased"].discard(job_id)
                node["completed"] += 1
            # Jobs coalesced onto this one resolve with it.
            for attached_id in self._attached.pop(job_id, ()):  # noqa: B020
                attached = self._jobs.get(attached_id)
                if attached is None \
                        or attached["status"] in TERMINAL_STATES:
                    continue
                self._resolve(attached, status, record, now, node_id,
                              coalesced=True)
                terminal_jobs.append(attached_id)
        self._fire_terminal(terminal_jobs)
        return {"accepted": True, "status": status}

    @staticmethod
    def _record_status(record: dict) -> str:
        if not isinstance(record, dict):
            return "failed"
        if record.get("status") == "dead_letter":
            return "dead_letter"
        return "failed" if record.get("failed") else "done"

    def _resolve(self, entry: dict, status: str, record: dict, ts: float,
                 node_id: str, coalesced: bool = False,
                 node_stored: bool = False) -> None:
        """Move one registry entry to a terminal state (lock held)."""
        job_id = entry["id"]
        entry["status"] = status
        entry.pop("node", None)
        entry.pop("spec", None)
        key = entry.get("key")
        if key is not None and self._inflight_keys.get(key) == job_id:
            del self._inflight_keys[key]
        if status == "done":
            self.counters["completed"] += 1
            self._journal_append("done", job=job_id, ts=ts)
            if not coalesced and not node_stored:
                self._span(job_id, "stored", ts=ts, node=node_id,
                           durable=True)
            self._span(job_id, "completed", ts=ts,
                       **({"coalesced": True} if coalesced else {}))
        elif status == "dead_letter":
            entry["error"] = record.get("error")
            self.counters["dead_lettered"] += 1
            self._journal_append("dead_letter", job=job_id, ts=ts,
                                 error=entry["error"])
            self._span(job_id, "dead_lettered", ts=ts, error=entry["error"])
        else:
            entry["error"] = record.get("error")
            self.counters["failed"] += 1
            self._journal_append("failed", job=job_id, ts=ts,
                                 error=entry["error"])
            self._span(job_id, "failed", ts=ts, error=entry["error"])
        self._terminal_metric(status)
        if self.telemetry is not None and not coalesced:
            leased = entry.get("_ts_leased")
            if leased is not None:
                self._m_run.observe(max(0.0, ts - leased))
        log_event(_LOG, "cluster.terminal", job=job_id,
                  trace=entry.get("trace"), status=status, node=node_id,
                  error=entry.get("error"))

    # -- liveness sweep --------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """One liveness sweep: escalate silent nodes alive -> suspect ->
        dead, reclaiming a dead node's leases into the queue (bounded
        redelivery budget; beyond it the job dead-letters)."""
        now = time.monotonic() if now is None else now
        terminal_jobs: List[str] = []
        notify_enqueued = False
        events: List[tuple] = []
        with self._lock:
            for node_id, node in self._nodes.items():
                if node["state"] == "dead":
                    continue
                age = now - node["last_hb"]
                if age > self.dead_after_s:
                    node["state"] = "dead"
                    self.counters["node_deaths"] += 1
                    self._journal_append("node", node=node_id, event="dead",
                                         ts=round(time.time(), 6))
                    log_event(_LOG, "cluster.node_died", node=node_id,
                              silent_s=round(age, 3),
                              leases=len(node["leased"]))
                    events.append((node_id, "dead"))
                    requeued, newly_terminal = \
                        self._reclaim_leases(node, node_id)
                    notify_enqueued |= requeued
                    terminal_jobs.extend(newly_terminal)
                elif age > self.suspect_after_s \
                        and node["state"] == "alive":
                    node["state"] = "suspect"
                    self._journal_append("node", node=node_id,
                                         event="suspect",
                                         ts=round(time.time(), 6))
                    log_event(_LOG, "cluster.node_suspect", node=node_id,
                              silent_s=round(age, 3))
                    events.append((node_id, "suspect"))
        for node_id, event in events:
            self._fire_node_event(node_id, event)
        if notify_enqueued:
            self._fire_enqueued()
        self._fire_terminal(terminal_jobs)

    def _reclaim_leases(self, node: dict, node_id: str):
        """Redeliver or dead-letter every job a dead node held (lock
        held).  Returns (any_requeued, [jobs turned terminal])."""
        requeued = False
        terminal: List[str] = []
        for job_id in sorted(node["leased"]):
            entry = self._jobs.get(job_id)
            if entry is None or entry["status"] != "running" \
                    or entry.get("node") != node_id:
                continue
            now = round(time.time(), 6)
            if entry.get("attempts", 0) > self.max_redeliveries:
                error = (f"dead-lettered after {entry['attempts']} "
                         f"deliveries (last: node {node_id} died)")
                self._resolve(entry, "dead_letter", {"error": error},
                              now, node_id)
                terminal.append(job_id)
                continue
            entry["status"] = "queued"
            entry.pop("node", None)
            self.counters["redeliveries"] += 1
            self._span(job_id, "redelivered", ts=now, durable=True,
                       cause=f"node {node_id} died",
                       attempt=entry.get("attempts", 0))
            self._push_queue(entry["priority"], job_id)
            requeued = True
        node["leased"].clear()
        return requeued, terminal

    # -- hook plumbing ---------------------------------------------------------

    def _fire_terminal(self, job_ids: List[str]) -> None:
        if not job_ids or self.on_terminal is None:
            return
        for job_id in job_ids:
            try:
                self.on_terminal(job_id)
            except Exception:
                pass

    def _fire_enqueued(self) -> None:
        if self.on_enqueued is not None:
            try:
                self.on_enqueued()
            except Exception:
                pass

    def _fire_node_event(self, node_id: str, event: str) -> None:
        if self.on_node_event is None:
            return
        try:
            self.on_node_event(node_id, event)
        except Exception:
            pass

    # -- views -----------------------------------------------------------------

    def job(self, job_id: str) -> Optional[dict]:
        with self._lock:
            entry = self._jobs.get(job_id)
            return self._public(entry) if entry else None

    def jobs_snapshot(self, status: Optional[str] = None) -> list:
        with self._lock:
            return [self._public(entry) for entry in self._jobs.values()
                    if status is None or entry["status"] == status]

    @staticmethod
    def _public(entry: dict) -> dict:
        public = {k: v for k, v in entry.items()
                  if k != "spec" and not k.startswith("_")}
        if public.get("coalesced_into"):
            public["coalesced"] = True
        if entry["status"] in ("done", "failed") and entry.get("key"):
            public["result_url"] = f"/results/{entry['key']}"
        return public

    def roster(self) -> List[dict]:
        """Public node roster with last-heartbeat ages (for ``/healthz``
        and the coordinator's stdout)."""
        now = time.monotonic()
        with self._lock:
            return [{"node": node["id"], "state": node["state"],
                     "capacity": node["capacity"],
                     "last_heartbeat_age_s": round(now - node["last_hb"], 3),
                     "workers": node["workers"],
                     "leased": len(node["leased"]),
                     "completed": node["completed"]}
                    for node in self._nodes.values()]

    def job_trace(self, job_id: str) -> Optional[dict]:
        if self.spans is None:
            return None
        return self.spans.trace(job_id)

    def scrub(self, repair: bool = False) -> dict:
        """Integrity-walk the authoritative store; with ``repair``,
        reconstructable quarantined entries re-enter the normal
        submission path (nodes recompute them)."""
        report = self.store.scrub()
        if repair:
            from repro.service.scrub import quarantined_specs
            repairable, unrepairable = quarantined_specs(self.store)
            requeued = []
            for _, spec in repairable:
                try:
                    requeued.append(self.submit(spec)["id"])
                except (QueueFullError, DrainingError):
                    break
            report["repair"] = {"requeued": requeued,
                                "unrepairable": unrepairable}
        self.scrub_report = report
        return report

    def stats(self) -> dict:
        with self._lock:
            by_status: Dict[str, int] = {}
            for entry in self._jobs.values():
                by_status[entry["status"]] = \
                    by_status.get(entry["status"], 0) + 1
            counters = dict(self.counters)
            queued = self._queued
        roster = self.roster()
        stats = {
            "schema": STATS_SCHEMA,
            "role": "coordinator",
            "store": self.store.stats_snapshot(),
            "cluster": {"counters": counters, "nodes": roster},
            "queue": {"depth": queued, "max": self.max_queue},
            "jobs": by_status,
            "service": {"draining": self._draining,
                        "recovery": dict(self.recovery)},
            "telemetry": {"enabled": self.telemetry is not None},
        }
        if self.telemetry is not None:
            stats["telemetry"].update(
                spans=len(self.spans),
                nodes_reporting=sum(
                    1 for n in self._node_snapshots() if n))
        if self.pool is not None:  # namespaced: topology, trace, counters
            pool = self.pool.stats_snapshot()
            stats["pool"] = {k: pool.pop(k) for k in
                             ("workers", "degraded", "pending", "leases")}
            stats["pool"].update(
                trace={"evictions": pool.pop("trace_evictions"),
                       "store": pool.pop("trace_store")}, counters=pool)
        if self.journal is not None:
            stats["journal"] = self.journal.stats_snapshot()
        if self.scrub_report is not None:
            stats["scrub"] = self.scrub_report
        return stats

    def live_workers(self) -> int:
        """Live pool workers: the last report of every node not declared
        dead, except that the local pool is counted directly (ready
        before the local node's registration lands; 0 once its node has
        failed and closed it)."""
        roster = {n["node"]: n for n in self.roster()}
        own = roster.pop(LOCAL_NODE_ID, None) if self.pool is not None \
            else None
        total = sum(n["workers"] for n in roster.values()
                    if n["state"] != "dead")
        if self.pool is not None and (own is None or own["state"] != "dead"):
            total += self.pool.alive_workers()
        return total

    def _node_snapshots(self) -> List[Optional[dict]]:
        """Latest cumulative telemetry snapshot per node (dead nodes
        included — their final counts are never lost)."""
        with self._lock:
            return [node.get("telemetry") for node in self._nodes.values()]

    def metrics_text(self) -> Optional[str]:
        """Prometheus text for the whole cluster: coordinator registry +
        the latest cumulative snapshot from every node (which itself
        merges that node's pool workers), or None when telemetry is
        off."""
        if self.telemetry is None:
            return None
        t = self.telemetry
        with self._lock:
            queued = self._queued
            running = sum(1 for e in self._jobs.values()
                          if e["status"] == "running")
            by_state: Dict[str, int] = {s: 0 for s in NODE_STATES}
            for node in self._nodes.values():
                by_state[node["state"]] += 1
        t.gauge("repro_queue_depth",
                "Jobs waiting in the submission queue").set(queued)
        t.gauge("repro_jobs_inflight",
                "Jobs leased to nodes, not yet terminal").set(running)
        for state, count in by_state.items():
            t.gauge("repro_cluster_nodes",
                    "Registered worker nodes by liveness state",
                    state=state).set(count)
        t.gauge("repro_workers_alive",
                "Live pool worker processes across nodes").set(
            self.live_workers())
        t.gauge("repro_service_draining",
                "1 while draining, else 0").set(
            1.0 if self._draining else 0.0)
        t.gauge("repro_spans_tracked",
                "Jobs with an in-memory span").set(len(self.spans))
        mirrors = [("store", self.store.stats_snapshot())]
        if self.pool is not None:
            mirrors.append(("pool", self.pool.stats_snapshot()))
        if self.journal is not None:
            mirrors.append(("journal", self.journal.stats_snapshot()))
        for prefix, snapshot in mirrors:
            for name, value in sorted(snapshot.items()):
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                t.gauge(f"repro_{prefix}_{name}",
                        f"Gauge mirror of the {prefix} counter "
                        f"{name!r}").set(value)
        for name, value in sorted(self.counters.items()):
            t.gauge(f"repro_cluster_{name}",
                    f"Gauge mirror of the cluster counter {name!r}"
                    ).set(value)
        merged = merge_snapshots([t.snapshot()] + self._node_snapshots())
        return render_prometheus(merged)
