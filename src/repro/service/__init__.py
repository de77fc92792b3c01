"""Simulation-as-a-service subsystem.

Composes the provenance layer (stable identity hashes), the resilience
layer (retry-with-reseed, failure capture) and ``multiprocessing`` into a
serving stack:

* :mod:`repro.service.store` — content-addressed on-disk result store
  keyed by the provenance manifest digest, with atomic writes, integrity
  checking/quarantine and hit/miss/eviction stats.
* :mod:`repro.service.jobs` — picklable job specs, the worker-side
  execute function and the deterministic result-record schema.
* :mod:`repro.service.pool` — worker pool fanning (core, app, config)
  jobs across CPUs with timeouts, cancellation and graceful degradation
  to serial execution when workers die.
* :mod:`repro.service.runner` — a ``ResilientRunner`` that transparently
  routes simulations through the pool + store (used by the sweep driver).
* :mod:`repro.service.cluster` — the job service behind ``repro
  serve``: a coordinator (bounded priority queue, journal, explicit 429
  backpressure) behind an asyncio HTTP JSON API, with worker nodes
  pulling leases — in-process for a single box, remote for a cluster.
* :mod:`repro.service.client` — ``urllib``-based client behind the
  ``python -m repro submit`` CLI verb.

Everything is stdlib-only and deterministic: a record computed by a pool
worker is byte-identical to one computed serially, which is what makes
the content-addressed cache sound.
"""

from repro.service.jobs import JobSpec, execute_job, record_to_result
from repro.service.pool import SimulationPool
from repro.service.runner import PooledRunner
from repro.service.store import ResultStore, result_key

__all__ = [
    "JobSpec",
    "PooledRunner",
    "ResultStore",
    "SimulationPool",
    "execute_job",
    "record_to_result",
    "result_key",
]
