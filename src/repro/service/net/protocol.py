"""Length-framed JSON frames: the gateway/worker wire format.

Framing
-------
Every frame is a 4-byte big-endian unsigned length ``N`` followed by ``N``
bytes of UTF-8 JSON encoding one object.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected before any payload is read, so a
corrupt length prefix cannot make a peer allocate gigabytes.

Frame types
-----------
All frames are JSON objects with a ``"type"`` key:

``{"type": "hello", "v": 1}``
    Connection handshake, sent by the client first.  The worker answers
    with its own ``hello`` carrying the protocol version it speaks plus
    deployment facts (backend name, worker width, graph size).  A worker
    serving a packed CSR substrate additionally reports ``graph_path`` and
    ``graph_version`` (the ``.stgq`` file and its content hash), letting a
    gateway spot shards that disagree about the graph.  A version
    mismatch is answered with an ``error`` frame and the connection closes.

``{"type": "ping", "id": ...}`` / ``{"type": "pong", "id": ...}``
    Liveness probe; ``id`` is echoed verbatim.

``{"type": "cache_clear", "id": ...}``
    Drop the worker's ego-network caches; answered with ``cache_cleared``.
    May optionally carry ``graph_path`` and ``graph_version``: the worker
    then re-opens that substrate file (memory-mapped, verifying the
    version hash) before clearing, turning the invalidation into a full
    graph refresh that ships a file *reference* instead of the graph.
    Optional keys added by newer gateways are ignored by older workers, so
    this rides on protocol v1 without a version bump.

``{"type": "delta", "id": ..., "batch": {...}}``
    Live-graph replication (see ``docs/live_graph.md``): one versioned
    mutation batch (``from_version``/``to_version``/``mutations`` per
    ``MutationBatch.as_wire``).  Answered with ``{"type": "delta_result",
    "id": ..., "status": "applied"|"noop"|"gap", "invalidated": N,
    "version": V}`` — the version handshake makes retries idempotent
    (``noop``) and turns out-of-order delivery into an explicit ``gap``
    the gateway bridges with a log replay or a ``snapshot``.

``{"type": "snapshot", "id": ..., "payload": {...}}``
    Catch-up fallback when deltas cannot bridge a version gap.  The
    payload carries ``version`` plus availability overrides and either
    inline topology (``vertices``/``edges``) or — when the frame also
    carries ``graph_path``/``graph_version`` — a reference to a ``.stgq``
    substrate file the worker re-opens instead (the same reload path
    ``cache_clear`` uses).  Answered with ``{"type": "snapshot_applied",
    "id": ..., "version": V, "invalidated": N}``.

    Both mutation frames ride on protocol v1: workers that predate them
    answer ``error`` with the connection kept open, which the gateway
    surfaces as an incomplete distribution.

``{"type": "placement_update", "id": ..., "map": {...}}``
    Load-aware routing distribution (see ``docs/placement.md``): one
    versioned placement map (``PlacementMap.as_wire`` — the exact body of
    a ``placement.json`` file).  The worker stores the map for gateways to
    discover and answers ``{"type": "placement_applied", "id": ...,
    "status": "applied"|"noop", "version": V}`` — ``noop`` when it already
    holds this or a newer version, the same idempotence rule as ``delta``.
    The worker's ``hello`` and every ``batch_result`` advertise its stored
    ``placement_version`` (0 = none), so a gateway routing with an older
    map notices and fetches the new one without a restart.

``{"type": "placement_get", "id": ...}``
    Fetch the worker's stored placement map; answered with ``{"type":
    "placement", "id": ..., "version": V, "map": {...}|null}``.  Both
    placement frames ride on protocol v1 exactly like the mutation frames:
    older workers answer ``error`` with the connection kept open.

``{"type": "stats"}``
    Snapshot of the worker's service counters and cache info (plus the
    worker's stored ``placement_version`` and, when its own service routes
    by shard, a rolling ``routing`` imbalance report).

``{"type": "batch", "id": ..., "requests": [...]}``
    A batch of query requests (payloads per :mod:`repro.service.codec`).
    Answered by ``{"type": "batch_result", "id": ..., "results": [...],
    "stats_delta": {...}, "cache_size": N}`` where each result is either a
    full-fidelity :func:`~repro.service.codec.encode_result` object or
    ``{"error": "..."}`` for that request alone.

``{"type": "error", "error": "..."}``
    Sent by the worker for protocol violations (unknown frame types keep
    the connection open; framing or handshake violations close it).

Both sides speak it over blocking sockets (:func:`recv_frame`/
:func:`send_frame`): the worker serves each connection on its own thread,
and the gateway's worker links and the one-shot :func:`exchange` are
blocking clients.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, Dict, Optional, Tuple

from ...exceptions import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "client_handshake",
    "exchange",
    "recv_frame",
    "send_frame",
    "encode_frame",
]

#: Version of the wire protocol; bumped on incompatible frame changes.
#: Both sides send it in ``hello`` and refuse mismatched peers.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (a batch of ~10k requests is still < 2 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one frame (length prefix + UTF-8 JSON body)."""
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must encode a JSON object, got {type(payload).__name__}")
    return payload


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})")


def _recv_exactly(
    sock: socket.socket, n: int, deadline: Optional[float] = None, between_frames: bool = False
) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        if deadline is not None:
            # The socket timeout alone is per-recv and resets on every
            # chunk, so a peer dribbling bytes could stall forever; the
            # deadline bounds the whole frame.
            left = deadline - time.monotonic()
            if left <= 0:
                raise socket.timeout("frame read deadline exceeded")
            sock.settimeout(left)
        chunk = sock.recv(remaining)
        if not chunk:
            if between_frames and remaining == n:
                raise ConnectionError("peer closed the connection")
            raise ProtocolError(f"connection closed mid-frame ({n - remaining}/{n} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, deadline: Optional[float] = None) -> Dict[str, Any]:
    """Read one frame from a blocking socket.

    Honours the socket's timeout per ``recv``; pass ``deadline`` (a
    ``time.monotonic()`` instant) to additionally bound the *whole* frame,
    raising ``socket.timeout`` once it passes.  A peer that closes the
    connection between frames raises ``ConnectionError``; one that closes
    it mid-frame breaks the framing and raises :class:`ProtocolError`.
    """
    (length,) = _LENGTH.unpack(_recv_exactly(sock, _LENGTH.size, deadline, between_frames=True))
    _check_length(length)
    return _decode_body(_recv_exactly(sock, length, deadline))


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(payload))


def client_handshake(
    sock: socket.socket, deadline: Optional[float] = None
) -> Dict[str, Any]:
    """Send a ``hello`` and validate the worker's reply; returns its hello.

    The one client-side handshake both blocking-socket clients (the
    gateway's worker links and :func:`exchange`) share, so the version
    check cannot silently diverge between entry points.  Raises
    :class:`ProtocolError` on a refusal, a non-hello reply, or a
    protocol-version mismatch.
    """
    send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
    reply = recv_frame(sock, deadline=deadline)
    if reply.get("type") == "error":
        raise ProtocolError(f"worker rejected the handshake: {reply.get('error')}")
    if reply.get("type") != "hello" or reply.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unexpected handshake reply type={reply.get('type')!r} "
            f"v={reply.get('v')!r} (expected hello v{PROTOCOL_VERSION})"
        )
    return reply


def exchange(
    address: Tuple[str, int], frame: Optional[Dict[str, Any]] = None, timeout: float = 5.0
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """One blocking one-shot exchange with a worker: connect, handshake, ask once.

    Sends ``frame`` (when given) after the handshake and returns ``(hello,
    reply)``, with ``reply`` ``None`` when no frame was sent.  The
    connection closes on return.  This is how the launcher's readiness
    ping, ``stgq stats`` and the ``stgq mutate --connect`` receipt talk to
    a worker.  Raises ``OSError`` on transport failures (``timeout``
    bounds the connect and every read) and :class:`ProtocolError` on a
    failed handshake or broken framing.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        hello = client_handshake(sock)
        if frame is None:
            return hello, None
        send_frame(sock, frame)
        return hello, recv_frame(sock)
