"""repro.service.net — the socket-level cluster subsystem.

This package scales the service layer past one box, the step the
:class:`~repro.service.ExecutorBackend` protocol was designed for:

* :mod:`~repro.service.net.protocol` — length-framed JSON frames, a
  versioned superset of the JSONL payloads (adds ``hello``/``ping``/
  ``stats`` control frames next to ``batch`` query frames).
* :mod:`~repro.service.net.worker` — a TCP server wrapping one local
  :class:`~repro.service.QueryService` (``stgq worker --listen``); each
  connection is served by its own thread, which answers every frame it
  reads.
* :mod:`~repro.service.net.remote` — :class:`RemoteBackend`, the drop-in
  executor backend that shards initiators across persistent worker
  connections (CRC32 :class:`~repro.service.ShardMap` or a
  :class:`~repro.service.PlacementMap`), sends a single-shard batch on the
  caller's thread and fans the rest out through one FIFO queue per worker,
  and degrades dead workers to per-request error results instead of failed
  batches.  It is the only sharded dispatch path: the ``process`` backend
  is a ``RemoteBackend`` over workers it spawns on 127.0.0.1.
* :mod:`~repro.service.net.cluster` — the local launcher, one spawn path
  for every locally started server: the ``process`` backend's children
  (``stgq serve --backend process --workers N``, the one-command local
  fleet), ``stgq worker`` fleets for multi-gateway topologies, and the
  HTTP gateways of :func:`~repro.service.http.start_local_gateways`.

See ``docs/service.md`` for the full architecture page and wire-protocol
specification.
"""

from .cluster import LocalWorkerCluster, start_local_workers
from .protocol import PROTOCOL_VERSION
from .remote import RemoteBackend, parse_addresses
from .worker import WorkerServer, run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "LocalWorkerCluster",
    "RemoteBackend",
    "WorkerServer",
    "parse_addresses",
    "run_worker",
    "start_local_workers",
]
