"""The ``service-dse`` workload: a closed-loop design-space study driven
through ``python -m repro serve`` over HTTP.

Two clients each submit a CASINO configuration variant (issue width, IQ
size, S-IQ size) on a quick-suite app, wait for it to reach a terminal
state, then submit the next.  Every second submission resubmits a spec
the client already completed, so store reads sit beside writes (the
half-resubmission mix the workload was sized with).  The server runs
one pool worker per client, fewer if the host has fewer spare CPUs.
Every number here comes from a public surface: client HTTP timings,
``/stats``, the ``/metrics`` histograms and the ``/jobs/<id>/trace``
spans.  Jobs do real simulation only.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from perfbench import common, stats
from perfbench.common import WorkloadResult
from perfbench.inproc import seeded_profiles
from perfbench.tracing import Span, Tracer

#: Trace length of every job (a quarter of it is warm-up).
JOB_INSTRS = 2_000
#: Closed-loop clients, so jobs in flight; also the most pool workers.
CLIENTS = 2
#: Jobs each client runs per timed pass.
JOBS_PER_CLIENT = 16
#: Every RESUBMIT_EVERY-th submission of a client is a resubmission.
RESUBMIT_EVERY = 2
#: Poll interval while a job runs: doubles from the first to the cap.
POLL_FIRST_S = 0.001
POLL_MAX_S = 0.008
#: First specs of the seeded order whose records make the digest.
DIGEST_SPECS = 8
#: Of those, how many are re-simulated in process and compared.
RESIM_SAMPLES = 3
#: Server starts timed for the set-up median (the last one is kept).
SETUP_PROBES = 4
#: A job slower than this (or failed, or refused) misses the limit.
LATENCY_LIMIT_S = 1.0
#: Connections used to read job spans after the timed window.
FETCH_THREADS = 4

WIDTHS = (2, 4)
IQ_SIZES = (8, 10, 12, 14, 16, 20, 24, 32)
SIQ_SIZES = (2, 3, 4, 5, 6, 8)
TERMINAL = ("done", "failed", "dead_letter")
TERMINAL_EVENTS = ("completed", "failed", "dead_lettered")


class SpecSpace:
    """Seeded, endless, stratified order of distinct job bodies.

    Spec ``k`` runs app ``k mod 8`` of the quick suite under the
    configuration of round ``k div 8``.  Rounds walk a seeded shuffle of
    the (IQ, S-IQ) grid and alternate issue width, so every stretch of
    specs mixes apps and widths evenly and the cost of a pass depends
    little on the seed.  Past the end of the grid the profile seeds move
    on, so no two specs share a result key.
    """

    def __init__(self, seed: int) -> None:
        self.profiles = seeded_profiles(seed)
        sizes = [(iq, siq) for iq in IQ_SIZES for siq in SIQ_SIZES]
        random.Random(seed).shuffle(sizes)
        self.rounds = [(width, iq, siq) for iq, siq in sizes
                       for width in WIDTHS]

    def body(self, k: int) -> dict:
        n_apps = len(self.profiles)
        cycle, round_ = divmod(k // n_apps, len(self.rounds))
        width, iq, siq = self.rounds[round_]
        profile = dataclasses.asdict(self.profiles[k % n_apps])
        profile["seed"] += 1_000_000 * cycle
        return {"core": {"base": "casino", "width": width, "iq_size": iq,
                         "siq_size": siq,
                         "name": f"casino-w{width}-iq{iq}-siq{siq}"},
                "profile": profile, "n": JOB_INSTRS,
                "warmup": JOB_INSTRS // 4}


class Http:
    """One keep-alive JSON connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def call(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        self.conn.request(method, path, body=data,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def json(self, path: str) -> dict:
        status, raw = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(raw)

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, store_dir: str, workers: int) -> None:
        self.workers = workers
        self.started = time.perf_counter()
        self.log = open(f"{store_dir}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--store", store_dir],
            cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.port = 0

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from process start until every worker is alive."""
        line = self.proc.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        client = Http(self.port)
        try:
            deadline = time.perf_counter() + timeout_s
            while time.perf_counter() < deadline:
                if client.json("/healthz").get("workers") == self.workers:
                    return time.perf_counter() - self.started
                time.sleep(0.002)
        finally:
            client.close()
        raise RuntimeError("server workers never came up")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill if it hangs; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """One closed-loop client: submit a job, wait for its terminal state,
    submit the next.  Every second submission resubmits a spec this
    client already completed (chosen by a seeded draw); the others take
    the client's next spec of the seeded order (client ``c`` of ``n``
    takes specs ``c, c + n, c + 2n, ...``), so each client's inputs do
    not depend on how the two interleave."""

    def __init__(self, port: int, space: SpecSpace, index: int,
                 seed: int) -> None:
        self.http = Http(port)
        self.space = space
        self.rng = random.Random(f"{seed}/{index}")
        self.next_spec = index
        self.completed: List[int] = []
        self.jobs: List[dict] = []   # one record per job, whole run

    def run(self, n_jobs: int, tracer: Optional[Tracer],
            parent: Optional[Span]) -> List[dict]:
        return [self._one(tracer, parent) for _ in range(n_jobs)]

    def _one(self, tracer: Optional[Tracer],
             parent: Optional[Span]) -> dict:
        resubmit = (len(self.jobs) % RESUBMIT_EVERY == RESUBMIT_EVERY - 1
                    and self.completed)
        if resubmit:
            k = self.rng.choice(self.completed)
        else:
            k = self.next_spec
            self.next_spec += CLIENTS
        job = {"spec": k, "resubmit": bool(resubmit), "polls": 0,
               "rejected": False}
        self.jobs.append(job)
        if tracer is not None:
            job["span"] = tracer.open("service.job", run=f"spec-{k}",
                                      parent=parent)
        try:
            job["t_submit"] = time.time()
            t0 = time.perf_counter()
            span = tracer.open("service.submit") if tracer else None
            status, raw = self.http.call("POST", "/jobs", self.space.body(k))
            if span is not None:
                tracer.close(span)
            job["submit_rtt"] = time.perf_counter() - t0
            if status != 202:
                job["rejected"] = True
                job["status"] = f"HTTP {status}"
                job["t_seen"] = time.time()
                return job
            entry = json.loads(raw)["jobs"][0]
            job.update(id=entry["id"], key=entry["key"],
                       cached=bool(entry.get("cached")))
            span = tracer.open("service.wait") if tracer else None
            job["wait_span"] = span
            delay = POLL_FIRST_S
            while entry["status"] not in TERMINAL:
                time.sleep(delay)
                delay = min(2 * delay, POLL_MAX_S)
                entry = self.http.json(f"/jobs/{entry['id']}")
                job["polls"] += 1
            if span is not None:
                tracer.close(span)
            job["t_seen"] = time.time()
            job["status"] = entry["status"]
            if entry["status"] == "done" and not resubmit:
                self.completed.append(k)
            return job
        finally:
            if tracer is not None:
                tracer.close(job["span"])


class Study:
    """The design-space study: ``CLIENTS`` closed-loop clients against
    one server, timed a pass at a time.

    A pass runs ``JOBS_PER_CLIENT`` jobs on every client at once and
    lasts from its first submission to the last server terminal event
    (``/jobs/<id>/trace``), so it is real elapsed time with two jobs in
    flight: queueing, dispatch and pool parallelism all count, and the
    clients' polling lag counts only where it delays a next submission.
    Passes and latencies are recorded in host seconds; :meth:`rescale`
    turns them into reference seconds with the run's scale (see
    :attr:`perfbench.common.JobTimer.run_scale`).
    """

    def __init__(self, port: int, space: SpecSpace, seed: int,
                 result: WorkloadResult) -> None:
        self.port = port
        self.clients = [Client(port, space, i, seed)
                        for i in range(CLIENTS)]
        self.timer = common.JobTimer()
        self.result = result
        self.queue_waits: List[float] = []
        self.runs: List[float] = []

    @property
    def jobs(self) -> List[dict]:
        return [job for client in self.clients for job in client.jobs]

    def run_pass(self, tracer: Optional[Tracer]) -> tuple:
        """One pass; returns its (reference, host) seconds."""
        parent = tracer.current() if tracer is not None else None

        def all_clients() -> List[dict]:
            with ThreadPoolExecutor(CLIENTS) as pool:
                futures = [pool.submit(client.run, JOBS_PER_CLIENT, tracer,
                                       parent) for client in self.clients]
                return [job for f in futures for job in f.result()]

        jobs, _, _ = self.timer.time(all_clients)
        done = [j for j in jobs if j.get("status") == "done"]
        spans = _fetch_all(self.port,
                           [f"/jobs/{j['id']}/trace" for j in done])
        ends = [j["t_seen"] for j in jobs if j.get("status") != "done"]
        for job in jobs:
            if job.get("status") != "done":
                self.result.job(False, None)
        for job, span in zip(done, spans):
            at = {ev["ev"]: ev["ts"] for ev in span["events"]}
            end = next((at[e] for e in TERMINAL_EVENTS if e in at),
                       job["t_seen"])
            ends.append(end)
            self.result.job(True, max(0.0, end - job["t_submit"]))
            if "leased" in at:
                self.queue_waits.append(at["leased"] - at["submitted"])
                self.runs.append(end - at["leased"])
            if tracer is not None:
                _server_spans(tracer, job, at)
        elapsed = max(ends) - min(j["t_submit"] for j in jobs)
        return elapsed, elapsed

    def rescale(self) -> None:
        """Pass times and job latencies from host to reference seconds."""
        scale = self.timer.run_scale
        result = self.result
        result.walls = [w * scale for w in result.walls]
        result.traced_walls = [w * scale for w in result.traced_walls]
        for outcome in result.outcomes:
            if outcome["latency_s"] is not None:
                outcome["latency_s"] *= scale

    def close(self) -> None:
        for client in self.clients:
            client.http.close()


def _fetch_all(port: int, paths: List[str]) -> List[dict]:
    """GET every path as JSON over a few keep-alive connections."""
    local = threading.local()
    opened: List[Http] = []
    lock = threading.Lock()

    def get(path: str) -> dict:
        if not hasattr(local, "http"):
            local.http = Http(port)
            with lock:
                opened.append(local.http)
        return local.http.json(path)

    try:
        with ThreadPoolExecutor(FETCH_THREADS) as pool:
            return list(pool.map(get, paths))
    finally:
        for http_ in opened:
            http_.close()


def _metric_sums(text: str) -> Dict[str, float]:
    """``name_sum``/``name_count`` samples of a Prometheus exposition."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith(("_sum", "_count")) and "{" not in name:
            out[name] = float(value)
    return out


def _ratio(stats_: dict) -> float:
    total = stats_.get("hits", 0) + stats_.get("misses", 0)
    return stats_.get("hits", 0) / total if total else 0.0


def service_dse(seed: int, seconds: float,
                tracer: Optional[Tracer]) -> WorkloadResult:
    result = WorkloadResult()
    # One worker per job in flight, as long as the workers and this
    # process fit in the host's CPUs.
    workers = max(1, min(CLIENTS, common.cpu_count() - 1))
    space = SpecSpace(seed)
    common.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="service-", dir=common.WORK)
    server: Optional[Server] = None
    study: Optional[Study] = None
    starts = itertools.count()

    def start() -> float:
        nonlocal server
        if server is not None:
            server.stop()
        server = Server(f"{workdir}/store{next(starts)}", workers)
        return server.wait_ready()

    try:
        # Every start is a set-up sample; the last server carries the load.
        result.setup_samples = common.setup_samples(start, SETUP_PROBES)
        study = Study(server.port, space, seed, result)
        common.timed_passes(lambda index, active: study.run_pass(active),
                            seconds, result, tracer)
        study.rescale()
        _collect(server, study, space, seed, result)
    finally:
        if study is not None:
            study.close()
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _collect(server: Server, study: Study, space: SpecSpace, seed: int,
             result: WorkloadResult) -> None:
    """After the timed window: layer numbers from /stats and /metrics,
    the digest and the re-simulation check."""
    jobs = study.jobs
    done = [j for j in jobs if j.get("status") == "done"]
    result.latency_limit_s = LATENCY_LIMIT_S
    http_ = Http(server.port)
    try:
        simulated_again = [j["spec"] for j in jobs if j["resubmit"]
                           and j.get("status") == "done"
                           and not j.get("cached")]
        result.check("resubmissions served from the store",
                     not simulated_again,
                     f"simulated again: specs {simulated_again}")
        snapshot = http_.json("/stats")
        _, raw = http_.call("GET", "/metrics")
        sums = _metric_sums(raw.decode())
        keys = {j["spec"]: j["key"] for j in jobs
                if j["spec"] < DIGEST_SPECS and j.get("status") == "done"}
        records = {k: http_.json(f"/results/{key}")["record"]
                   for k, key in sorted(keys.items())}
    finally:
        http_.close()

    rtts = [j["submit_rtt"] for j in jobs if "submit_rtt" in j]
    journal = snapshot.get("journal", {})
    trace_store = snapshot.get("pool", {}).get("trace", {}).get("store") or {}
    worker_sim = sums.get("repro_worker_sim_seconds_sum", 0.0)
    result.layer_values = {
        "service.submit_rtt_p50_s": stats.percentile(rtts, 50),
        "service.submit_rtt_p95_s": stats.percentile(rtts, 95),
        "service.queue_wait_p50_s": stats.percentile(study.queue_waits, 50),
        "service.polls_per_job": (sum(j["polls"] for j in done) / len(done)
                                  if done else 0.0),
        "service.busy_rejects": float(sum(j["rejected"] for j in jobs)),
        "service.job_run_p50_s": stats.percentile(study.runs, 50),
        "service.worker_sim_s": worker_sim,
        "service.dispatch_overhead_s":
            sums.get("repro_job_run_seconds_sum", 0.0) - worker_sim,
        "service.store_hit_ratio": _ratio(snapshot.get("store", {})),
        "service.trace_hit_ratio": _ratio(trace_store),
        "service.journal_appends": float(journal.get("appends", 0)),
        "service.journal_fsyncs": float(journal.get("fsyncs", 0)),
    }
    result.extra["resubmitted_share"] = (
        sum(j["resubmit"] for j in jobs) / max(len(jobs), 1), "ratio",
        len(jobs))
    result.sim_digest = common.digest(
        {k: rec["counters"] for k, rec in records.items()})
    result.check(f"first {DIGEST_SPECS} specs served",
                 len(records) == DIGEST_SPECS, f"{len(records)} served")
    _resimulate(records, space, seed, result)


def _server_spans(tracer: Tracer, job: dict, at: Dict[str, float]) -> None:
    """Turn one job's server-side lifecycle events into child spans of
    its client-side ``service.wait`` span (same host, same clock),
    clipped to the wait so layer self times add up to the job."""
    wait = job["wait_span"]
    steps = [("service.queue", "journaled", "leased"),
             ("service.dispatch", "leased", "started"),
             ("service.sim", "started", "simulated"),
             ("service.store", "simulated", "stored")]
    for name, begin, finish in steps:
        if begin not in at or finish not in at:
            continue
        start, end = max(at[begin], wait.start), min(at[finish], wait.end)
        if end > start:
            tracer.record(name, start, end, parent=wait, job=job["id"])


def _resimulate(records: Dict[int, dict], space: SpecSpace, seed: int,
                result: WorkloadResult) -> None:
    """Re-run a seeded sample of served records in process and require
    every counter to match."""
    from repro.common.config_io import core_config_from_dict
    from repro.harness.runner import Runner
    from repro.workloads.generator import WorkloadProfile

    sample = random.Random(seed).sample(sorted(records),
                                        min(RESIM_SAMPLES, len(records)))
    mismatched = []
    for k in sample:
        body = space.body(k)
        runner = Runner(n_instrs=body["n"], warmup=body["warmup"],
                        accounting=True)
        res = runner.run(core_config_from_dict(body["core"]),
                         WorkloadProfile(**body["profile"]))
        if dict(res.stats.counters) != records[k]["counters"]:
            mismatched.append(k)
    result.check(f"{RESIM_SAMPLES} served records re-simulated in process "
                 "match counter for counter", not mismatched,
                 f"mismatched spec indices {mismatched}")
