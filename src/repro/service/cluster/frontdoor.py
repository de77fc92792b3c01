"""The HTTP front door of the job service.

One asyncio event loop (running in its own thread so the blocking
service objects need no rewrite) speaks enough HTTP/1.1 for the JSON API
of docs/SERVICE.md: keep-alive connections and ``Content-Length``
bodies, each response sent in one write.  ``POST /jobs`` answers 202
with accepted entries, 429 + ``Retry-After`` when the bounded queue
fills and 503 + ``Retry-After`` while draining; ``GET /jobs/<id>?wait=S``
**long-polls**, parking the request on an asyncio event until the job
turns terminal (or S seconds pass), so waiting clients cost events, not
threads.

Node routes (``POST /cluster/register|heartbeat|lease|complete``) carry
the pull protocol; ``lease`` long-polls on a global work event so idle
nodes learn of new work in one round-trip.  A liveness tick runs as a
loop task, escalating silent nodes alive -> suspect -> dead (lease
reclaim + redelivery).  ``repro serve`` adds a local node: the door
builds, starts, stops and closes a
:class:`~repro.service.cluster.node.ClusterNode` in this process that
pulls its leases through this very door over loopback.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import signal
import threading
import urllib.parse
from pathlib import Path
from typing import Optional, Tuple

from repro.obs.telemetry import configure_logging, get_logger, log_event
from repro.service.cluster.coordinator import (DEFAULT_PRIORITY,
                                               LOCAL_NODE_ID, ClusterService,
                                               DrainingError, QueueFullError,
                                               UnknownNodeError)
from repro.service.cluster.node import ClusterNode
from repro.service.jobs import JobSpec
from repro.service.journal import Journal
from repro.service.store import ResultStore

_LOG = get_logger("service.cluster.frontdoor")

#: Upper bound on any single long-poll park (client or node side).
LONG_POLL_CAP_S = 30.0
#: Lost-wakeup fallback: parked lease waits re-check at least this often.
POLL_SLICE_S = 0.25
#: Hint sent with 429 (queue full) and 503 (draining) responses.
RETRY_AFTER_S = 2


class BadJobError(Exception):
    """The submitted job spec is invalid."""


def spec_from_request(body: dict) -> JobSpec:
    """Validate one submitted job object into a JobSpec.

    ``core`` is a known core name or a full config object; ``app`` is a
    suite application name or ``profile`` a full profile object.
    """
    if not isinstance(body, dict):
        raise BadJobError("job must be a JSON object")
    core = body.get("core", "casino")
    if isinstance(core, str):
        from repro.__main__ import _CORES as factories
        if core not in factories:
            raise BadJobError(
                f"unknown core {core!r}; valid: {', '.join(sorted(factories))}")
        cfg = factories[core]()
    elif isinstance(core, dict):
        try:
            from repro.common.config_io import core_config_from_dict
            cfg = core_config_from_dict(core)
        except Exception as exc:
            raise BadJobError(f"bad core config: {exc}")
    else:
        raise BadJobError("core must be a name or a config object")
    profile = body.get("profile")
    if profile is None:
        app = body.get("app")
        if not isinstance(app, str):
            raise BadJobError("job needs an 'app' name or a 'profile' object")
        from repro.workloads.suite import SUITE
        if app not in SUITE:
            raise BadJobError(f"unknown app {app!r}")
        profile_obj = SUITE[app]
    else:
        try:
            from repro.workloads.generator import WorkloadProfile
            profile_obj = WorkloadProfile(**profile)
        except (TypeError, ValueError) as exc:
            raise BadJobError(f"bad profile: {exc}")
    try:
        n_instrs = int(body.get("n", body.get("n_instrs", 24_000)))
        warmup = int(body.get("warmup", 6_000))
    except (TypeError, ValueError):
        raise BadJobError("'n' and 'warmup' must be integers")
    try:
        # Fault-injection hooks (chaos tests and the cluster bench's
        # stall workload submit these over HTTP; neither is part of the
        # result key, so they never pollute the store).
        test_kill = int(body.get("test_kill", 0))
        test_stall_s = float(body.get("test_stall_s", 0.0))
    except (TypeError, ValueError):
        raise BadJobError("'test_kill' and 'test_stall_s' must be numeric")
    return JobSpec(core=dataclasses.asdict(cfg),
                   profile=dataclasses.asdict(profile_obj),
                   n_instrs=n_instrs, warmup=warmup,
                   sanitize=bool(body["sanitize"]) if "sanitize" in body
                   else None,
                   retries=int(body.get("retries", 1)),
                   accounting=bool(body.get("accounting", True)),
                   test_kill=test_kill, test_stall_s=test_stall_s)


class ClusterFrontDoor:
    """One asyncio HTTP server in a dedicated thread, plus the local node
    of ``workers`` pool workers (``None``: one per CPU; 0: no local node)
    with per-job ``timeout``."""

    def __init__(self, service: ClusterService,
                 host: str = "127.0.0.1", port: int = 0,
                 tick_s: float = 0.05,
                 workers: Optional[int] = 0,
                 timeout: Optional[float] = None) -> None:
        self.service = service
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.tick_s = tick_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        #: job id -> event set when that job turns terminal (loop thread).
        self._job_events = {}
        self._work_event: Optional[asyncio.Event] = None
        self._stopping = False
        self.local_node: Optional[ClusterNode] = None
        if workers != 0:
            # Heartbeat well inside the suspect window, like any node must.
            self.local_node = ClusterNode(
                None, service.store, node_id=LOCAL_NODE_ID, workers=workers,
                heartbeat_s=min(1.0, service.suspect_after_s / 4),
                job_timeout_s=timeout)
            service.pool = self.local_node.pool
        service.on_terminal = self._notify_terminal
        service.on_enqueued = self._notify_enqueued

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Serve, then start the local node (if any) against this door's
        own address."""
        node = self.local_node
        if node is not None:
            # Fork the workers first: they inherit no loop thread and no
            # listening socket, and warm up while the door starts.
            node.pool.start()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="cluster-frontdoor",
                                        daemon=True)
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            raise self._start_error
        if node is not None:
            node.start(self.url)

    def stop(self) -> None:
        """Stop the local node's loop, then serving, then close the
        node (its pool workers exit)."""
        node = self.local_node
        if node is not None:
            # While the door still serves: release its parked lease so
            # the loop ends within one step, no request left hanging.
            node.stop()
            self._stopping = True
            self._notify_enqueued()
            node.join()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            self._loop = None
        if node is not None:
            node.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port))
        except OSError as exc:
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._work_event = asyncio.Event()
        self._tick_task = loop.create_task(self._tick_forever())
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:  # parked long-polls + the tick task
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    async def _tick_forever(self) -> None:
        while True:
            await asyncio.sleep(self.tick_s)
            self.service.tick()

    # -- cross-thread notifications -------------------------------------------

    def _notify_terminal(self, job_id: str) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._set_job_event, job_id)

    def _set_job_event(self, job_id: str) -> None:
        event = self._job_events.pop(job_id, None)
        if event is not None:
            event.set()

    def _notify_enqueued(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._set_work_event)

    def _set_work_event(self) -> None:
        if self._work_event is not None:
            self._work_event.set()

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                try:
                    method, target, version = lines[0].split(" ", 2)
                except ValueError:
                    return
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        name, value = line.split(":", 1)
                        headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", 0))
                except ValueError:
                    length = -1
                # A body that cannot be framed is answered, then closed.
                close = (length < 0 or version == "HTTP/1.0"
                         or headers.get("connection", "").lower() == "close")
                if length < 0:
                    status, payload, extra, ctype = \
                        400, {"error": "invalid Content-Length"}, {}, None
                else:
                    body = await reader.readexactly(length) if length \
                        else b""
                    try:
                        status, payload, extra, ctype = \
                            await self._dispatch(method, target, body)
                    except Exception as exc:  # route bug: 500, keep going
                        log_event(_LOG, "frontdoor.error", target=target,
                                  error=repr(exc))
                        status, payload, extra, ctype = \
                            500, {"error": f"internal error: {exc}"}, {}, None
                raw = payload if isinstance(payload, bytes) else \
                    (json.dumps(payload, sort_keys=True) + "\n").encode()
                head_lines = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                    f"Content-Type: "
                    f"{ctype or 'application/json'}",
                    f"Content-Length: {len(raw)}",
                ]
                for name, value in (extra or {}).items():
                    head_lines.append(f"{name}: {value}")
                head_lines.append(
                    "Connection: close" if close else
                    "Connection: keep-alive")
                writer.write(("\r\n".join(head_lines) + "\r\n\r\n")
                             .encode() + raw)
                await writer.drain()
                if close:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes
                        ) -> Tuple[int, object, dict, Optional[str]]:
        url = urllib.parse.urlsplit(target)
        path = url.path
        query = urllib.parse.parse_qs(url.query)
        if method == "GET":
            return await self._get(path, query)
        if method == "POST":
            return await self._post(path, query, body)
        return 405, {"error": f"method {method} not allowed"}, {}, None

    async def _get(self, path: str, query: dict):
        service = self.service
        if path == "/healthz":
            return 200, {
                "status": "draining" if service.draining else "ok",
                "role": "coordinator",
                "workers": service.live_workers(),
                "nodes": service.roster(),
            }, {}, None
        if path == "/stats":
            return 200, service.stats(), {}, None
        if path == "/metrics":
            text = service.metrics_text()
            if text is None:
                return 404, {"error": "telemetry is disabled"}, {}, None
            return (200, text.encode(), {},
                    "text/plain; version=0.0.4; charset=utf-8")
        if path == "/jobs":
            status = (query.get("status") or [None])[0]
            return 200, {"jobs": service.jobs_snapshot(status)}, {}, None
        if path.startswith("/jobs/") and path.endswith("/trace"):
            job_id = path[len("/jobs/"):-len("/trace")]
            if service.spans is None:
                return 404, {"error": "telemetry is disabled"}, {}, None
            trace = service.job_trace(job_id)
            if trace is None:
                return 404, {"error": "no trace for that job"}, {}, None
            return 200, trace, {}, None
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            wait_s = 0.0
            try:
                wait_s = float((query.get("wait") or [0.0])[0])
            except ValueError:
                pass
            job = service.job(job_id)
            if job is not None and wait_s > 0 \
                    and job["status"] not in ("done", "failed",
                                              "dead_letter"):
                job = await self._long_poll_job(job_id, wait_s)
            if job is None:
                return 404, {"error": "no such job"}, {}, None
            return 200, job, {}, None
        match = re.fullmatch(r"/results/([0-9a-f]+)", path)
        if match:
            raw = service.store.get_bytes(match.group(1))
            if raw is None:
                return 404, {"error": "no such result"}, {}, None
            return 200, raw, {}, None
        return 404, {"error": "unknown endpoint"}, {}, None

    async def _long_poll_job(self, job_id: str, wait_s: float):
        """Park until ``job_id`` turns terminal or the wait expires."""
        event = self._job_events.get(job_id)
        if event is None:
            event = self._job_events[job_id] = asyncio.Event()
        # Re-check after registering: the terminal notification may have
        # fired between the status read and the event creation.
        job = self.service.job(job_id)
        if job is not None and job["status"] in ("done", "failed",
                                                 "dead_letter"):
            return job
        try:
            await asyncio.wait_for(event.wait(),
                                   timeout=min(wait_s, LONG_POLL_CAP_S))
        except asyncio.TimeoutError:
            pass
        return self.service.job(job_id)

    async def _post(self, path: str, query: dict, body: bytes):
        service = self.service
        if path.startswith("/cluster/"):
            return await self._post_cluster(path, body)
        if path == "/scrub":
            repair = (query.get("repair") or ["0"])[0] == "1"
            return 200, service.scrub(repair=repair), {}, None
        if path != "/jobs":
            return 404, {"error": "unknown endpoint"}, {}, None
        if service.draining:
            return _retry_later(503, {"error": "service is draining"})
        try:
            parsed = json.loads(body or b"{}")
        except (ValueError, json.JSONDecodeError):
            return 400, {"error": "invalid JSON body"}, {}, None
        raw_jobs = (parsed.get("jobs", [parsed])
                    if isinstance(parsed, dict) else None)
        if not isinstance(raw_jobs, list) or not raw_jobs:
            return (400, {"error": "submit a job object or "
                                   "{'jobs': [...]}"}, {}, None)
        try:
            specs = [(spec_from_request(job),
                      int(job.get("priority", DEFAULT_PRIORITY))
                      if isinstance(job, dict) else DEFAULT_PRIORITY)
                     for job in raw_jobs]
        except BadJobError as exc:
            return 400, {"error": str(exc)}, {}, None
        accepted = []
        try:
            for spec, priority in specs:
                accepted.append(service.submit(spec, priority))
        except (QueueFullError, DrainingError) as exc:
            return _retry_later(429 if isinstance(exc, QueueFullError)
                                else 503,
                                {"error": str(exc), "accepted": accepted})
        return 202, {"jobs": accepted}, {}, None

    async def _post_cluster(self, path: str, body: bytes):
        service = self.service
        try:
            message = json.loads(body or b"{}")
        except (ValueError, json.JSONDecodeError):
            return 400, {"error": "invalid JSON body"}, {}, None
        if not isinstance(message, dict) or not message.get("node"):
            return 400, {"error": "message needs a 'node' id"}, {}, None
        node_id = str(message["node"])
        try:
            if path == "/cluster/register":
                ack = service.register_node(
                    node_id, capacity=int(message.get("capacity", 1)),
                    meta=message.get("meta"),
                    workers=message.get("workers"))
                return 200, ack, {}, None
            if path == "/cluster/heartbeat":
                ack = service.heartbeat(
                    node_id, telemetry=message.get("telemetry"),
                    workers=message.get("workers"))
                return 200, ack, {}, None
            if path == "/cluster/lease":
                jobs = await self._lease_long_poll(
                    node_id, int(message.get("max_jobs", 1)),
                    float(message.get("wait_s", 0.0)),
                    message.get("workers"))
                return 200, {"jobs": jobs,
                             "draining": service.draining}, {}, None
            if path == "/cluster/complete":
                ack = service.complete(
                    node_id, str(message.get("job")),
                    message.get("record") or {},
                    span_events=message.get("spans"),
                    telemetry=message.get("telemetry"),
                    key=message.get("key"))
                return 200, ack, {}, None
        except UnknownNodeError as exc:
            return 409, {"error": str(exc)}, {}, None
        return 404, {"error": "unknown endpoint"}, {}, None

    async def _lease_long_poll(self, node_id: str, max_jobs: int,
                               wait_s: float, workers=None) -> list:
        """Lease now, or park on the work event until something queues
        (bounded slices guard against lost wakeups).  A stopping door
        leases nothing: the local node's loop is ending."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(max(wait_s, 0.0), LONG_POLL_CAP_S)
        while not self._stopping:
            jobs = self.service.try_lease(node_id, max_jobs, workers)
            remaining = deadline - loop.time()
            if jobs or remaining <= 0:
                return jobs
            self._work_event.clear()
            try:
                await asyncio.wait_for(self._work_event.wait(),
                                       timeout=min(remaining,
                                                   POLL_SLICE_S))
            except asyncio.TimeoutError:
                pass
        return []


def _retry_later(status: int, payload: dict):
    """A 429/503 response carrying the ``Retry-After`` hint."""
    return (status, dict(payload, retry_after_s=RETRY_AFTER_S),
            {"Retry-After": str(RETRY_AFTER_S)}, None)


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def create_coordinator(host: str = "127.0.0.1", port: int = 0,
                       store_dir: str = ".repro-store",
                       max_queue: int = 256,
                       journal_sync: Optional[str] = "batch",
                       telemetry: bool = True,
                       suspect_after_s: float = 5.0,
                       dead_after_s: float = 15.0,
                       workers: Optional[int] = 0,
                       timeout: Optional[float] = None):
    """Build (but do not start) a coordinator + front door pair.

    ``workers`` sizes the local node's pool (``None``: one per CPU); 0
    builds a coordinator for remote nodes only.  ``timeout`` is the
    per-job timeout.  The write-ahead journal lives under
    ``<store_dir>/journal`` with the given fsync policy (``always`` |
    ``batch`` | ``off``); ``journal_sync=None`` runs without one
    (volatile job state).
    Start with ``service.start()`` (journal recovery) then
    ``door.start()`` (which also starts the local node); tear down with
    ``door.stop()`` then ``service.stop()``.
    """
    store = ResultStore(store_dir)
    journal = None
    if journal_sync not in (None, "none"):
        journal = Journal(Path(store_dir) / "journal", sync=journal_sync)
    service = ClusterService(store, max_queue=max_queue, journal=journal,
                             telemetry=telemetry,
                             suspect_after_s=suspect_after_s,
                             dead_after_s=dead_after_s)
    door = ClusterFrontDoor(service, host=host, port=port, workers=workers,
                            timeout=timeout)
    return door, service


def serve_coordinator(host: str, port: int, store_dir: str,
                      max_queue: int = 256,
                      journal_sync: Optional[str] = "batch",
                      telemetry: bool = True,
                      suspect_after_s: float = 5.0,
                      dead_after_s: float = 15.0,
                      drain_timeout_s: float = 30.0,
                      workers: Optional[int] = 0,
                      timeout: Optional[float] = None,
                      stats_interval: Optional[float] = None,
                      echo=print) -> int:
    """Blocking entry behind ``repro serve`` (``workers`` as in
    :func:`create_coordinator`: ``--role single`` starts a local node,
    ``--role coordinator`` passes 0).

    Node roster transitions (registered / suspect / dead / recovered)
    land on stdout with last-heartbeat ages; lifecycle events also land
    on stderr as JSON log lines, and with ``stats_interval`` a
    ``service.stats`` line every that-many seconds.  SIGTERM/SIGINT
    drain: new submissions get 503 + ``Retry-After``, leased jobs finish
    (up to ``drain_timeout_s``), queued work stays journaled for the
    next start, and the process exits 0.
    """
    configure_logging()
    door, service = create_coordinator(
        host=host, port=port, store_dir=store_dir, max_queue=max_queue,
        journal_sync=journal_sync, telemetry=telemetry,
        suspect_after_s=suspect_after_s, dead_after_s=dead_after_s,
        workers=workers, timeout=timeout)

    def _roster_line(node_id: str, event: str) -> None:
        ages = {n["node"]: n["last_heartbeat_age_s"]
                for n in service.roster()}
        echo(f"[roster] node {node_id} {event} "
             f"(last heartbeat {ages.get(node_id, 0.0):.1f}s ago; "
             f"{len(ages)} node(s) known)")

    service.start()
    door.start()
    node = door.local_node
    echo(f"job service on {door.url} ("
         + (f"local node with {node.capacity} worker(s)" if node
            else "no local node")
         + f", store {store_dir}, queue {max_queue}, journal "
         f"{journal_sync if service.journal else 'off'}, telemetry "
         f"{'on' if telemetry else 'off'}, suspect after "
         f"{suspect_after_s:g}s, dead after {dead_after_s:g}s)")
    service.on_node_event = _roster_line  # the URL line stays first
    log_event(_LOG, "coordinator.started", host=host, port=door.port,
              store=store_dir, workers=node.capacity if node else 0)
    recovered = service.recovery
    if recovered["replayed"]:
        echo(f"recovered {recovered['replayed']} journaled job(s): "
             f"{recovered['recovered_done']} already done, "
             f"{recovered['requeued']} re-queued, "
             f"{recovered['lost']} lost")
    stop = threading.Event()
    if stats_interval:
        def _stats_loop():
            while not stop.wait(stats_interval):
                snapshot = service.stats()
                log_event(_LOG, "service.stats",
                          queue_depth=snapshot["queue"]["depth"],
                          jobs=snapshot["jobs"],
                          cluster=snapshot["cluster"]["counters"],
                          store_hits=snapshot["store"].get("hits"),
                          store_misses=snapshot["store"].get("misses"),
                          workers=service.live_workers())

        threading.Thread(target=_stats_loop, name="stats-logger",
                         daemon=True).start()

    def _signal(signum, frame):
        echo(f"signal {signum}: draining (leased jobs finish, queued "
             f"work stays journaled)")
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _signal)
        except ValueError:
            pass
    stop.wait()
    service.begin_drain()
    drained = service.drain(timeout_s=drain_timeout_s)
    door.stop()
    service.stop()
    echo("drained cleanly" if drained else
         f"drain timed out after {drain_timeout_s:g}s")
    return 0
