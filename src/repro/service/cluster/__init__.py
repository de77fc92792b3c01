"""The job service: coordinator, nodes, async front door.

One **coordinator** owns the job registry, the bounded priority queue,
the authoritative content-addressed result store and the write-ahead
journal; **worker nodes** (each wrapping a lease-based
:class:`~repro.service.pool.SimulationPool`) register, heartbeat and
*pull* work over HTTP — one in-process local node for ``repro serve``,
remote ones (separate processes or hosts) for a cluster:

* :mod:`~repro.service.cluster.coordinator` — the state machine
  (roster, lease-per-node, journal-backed recovery and redelivery,
  cross-sweep dedup + in-flight coalescing).  No sockets.
* :mod:`~repro.service.cluster.frontdoor` — the asyncio HTTP/1.1 server
  (client JSON API with the 429/503 contract and long-poll job status,
  plus ``/cluster/register|heartbeat|lease|complete``) and the
  ``repro serve`` entry point.
* :mod:`~repro.service.cluster.node` — the node agent: lease, replicate
  (fetch-on-miss with digest verification), simulate, report back with
  span events and telemetry snapshots riding the completion message.
* :mod:`~repro.service.cluster.replica` — the pull-through replica view
  of a content-addressed store.
"""

from repro.service.cluster.coordinator import (  # noqa: F401
    ClusterService,
    UnknownNodeError,
)
from repro.service.cluster.frontdoor import (  # noqa: F401
    ClusterFrontDoor,
    serve_coordinator,
)
from repro.service.cluster.node import ClusterNode, run_node  # noqa: F401
from repro.service.cluster.replica import ReplicaStore  # noqa: F401
