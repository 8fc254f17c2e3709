"""Request/response codec shared by every front door.

One query, one JSON object — the same payload shape travels over all three
transports (``stgq serve --jsonl`` newline-delimited frames, the
length-framed ``batch`` frames of :mod:`repro.service.net.protocol` and
``POST /v1/queries``):

Request::

    {"id": 7, "initiator": 12, "group_size": 5, "radius": 1,
     "acquaintance": 2, "activity_length": 4}

``id`` is optional and echoed back verbatim.  The paper's short parameter
names are accepted as aliases (``p`` = group_size, ``s`` = radius,
``k`` = acquaintance, ``m`` = activity_length); omitting
``activity_length``/``m`` makes the request a purely social SGQ.
:func:`query_from_request` is the one request validator (integer parameters,
never booleans; every bad field named at once in a :class:`RequestError`);
:meth:`~repro.service.QueryService.parse_request` adds the checks that need
the graph and the calendars.  A request
may also set ``"stats": true`` (see :func:`wants_stats`) to opt into a
``stats`` field on its response carrying the solver's
:class:`~repro.core.result.SearchStats` — the end-to-end observability
hook: the kernel records the stats, the per-batch execution context carries
them, and the wire returns them to the client that asked.

Response::

    {"id": 7, "feasible": true, "members": [3, 9, 12, 17, 20],
     "total_distance": 6.5, "period": [10, 13], "solver": "STGSelect"}

``total_distance`` is ``null`` for infeasible results (JSON has no
``Infinity``); :func:`decode_result` maps it back to ``math.inf``.

Two encodings exist because the two sides need different fidelity:

* :func:`response_for` — the *client-facing* response above, lossy on
  purpose (no search statistics, no pivot bookkeeping).
* :func:`encode_result` / :func:`decode_result` — the *worker-facing*
  encoding used between a gateway and its remote workers: a full
  :class:`~repro.core.result.GroupResult` / ``STGroupResult`` round-trip
  including :class:`~repro.core.result.SearchStats`, so backend equivalence
  (identical results *and* stats) survives the network hop.

Vertex ids must be JSON-safe values (ints or strings — what every dataset in
this package uses); richer vertex objects would need their own codec.

:class:`ErrorResult` is the in-band failure marker: a result-shaped object a
backend can put in a batch slot when that request (and only that request)
could not be answered — e.g. its remote worker is down.  ``response_for``
renders it as ``{"id": ..., "error": ...}`` and ``encode_result`` as
``{"error": ...}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Tuple, Union

from ..core.query import SGQuery, STGQuery
from ..core.result import GroupResult, SearchStats, STGroupResult
from ..exceptions import QueryError
from ..temporal.slots import SlotRange
from ..types import Vertex

__all__ = [
    "FIELD_ALIASES",
    "MAX_REQUEST_BYTES",
    "ErrorResult",
    "RequestError",
    "decode_result",
    "encode_result",
    "query_from_request",
    "request_for",
    "response_for",
    "wants_stats",
]

Query = Union[SGQuery, STGQuery]
Result = Union[GroupResult, STGroupResult]

#: Upper bound on one encoded request (a well-formed request is < 200 bytes;
#: anything near this limit is a malformed or hostile client).  Enforced per
#: line by the JSONL loop and per frame by the socket protocol.
MAX_REQUEST_BYTES = 1_000_000

#: Paper-style aliases accepted in requests.
FIELD_ALIASES = {"p": "group_size", "s": "radius", "k": "acquaintance", "m": "activity_length"}

#: Request keys (post-aliasing) with their validation rules.  ``activity_length``
#: is optional (absent = SGQ); ``radius`` and ``acquaintance`` default to 1.
_FIELD_RULES: Dict[str, Tuple[bool, int, str]] = {
    # name -> (required, minimum, description)
    "initiator": (True, 0, "vertex id of the query initiator"),
    "group_size": (True, 1, "group size p (>= 1)"),
    "radius": (False, 1, "social radius s (>= 1)"),
    "acquaintance": (False, 0, "acquaintance constraint k (>= 0)"),
    "activity_length": (False, 1, "activity length m (>= 1; omit for SGQ)"),
}


class RequestError(QueryError):
    """A request whose fields break the request rules.

    ``fields`` maps each bad field — under the key the client sent, so a
    broken alias is reported as the alias — to its problem; the HTTP tier
    returns it as the 400's ``fields`` map.
    """

    def __init__(self, fields: Dict[str, str]) -> None:
        detail = "; ".join(f"{key}: {problem}" for key, problem in fields.items())
        super().__init__(f"invalid query: {detail}")
        self.fields = fields


@dataclass(frozen=True)
class ErrorResult:
    """Result-shaped placeholder for one request that could not be answered.

    Quacks like an infeasible :class:`~repro.core.result.GroupResult` (so
    generic result handling keeps working) but carries the failure text in
    ``error`` and is rendered as an error response by :func:`response_for`.
    Error results are *not* counted in service stats — the query was never
    solved.
    """

    error: str
    solver: str = "error"
    feasible: bool = False
    members: FrozenSet[Vertex] = frozenset()
    total_distance: float = math.inf
    stats: SearchStats = field(default_factory=SearchStats)

    def sorted_members(self) -> List[Vertex]:
        """Mirror the result API: no members on a failed request."""
        return []


def query_from_request(payload: Dict[str, Any]) -> Query:
    """Build an :class:`SGQuery`/:class:`STGQuery` from one decoded request.

    Raises :class:`RequestError` naming every missing, mistyped,
    out-of-range or alias-colliding field at once, and
    :class:`~repro.exceptions.QueryError` for a payload that is not an
    object.
    """
    if not isinstance(payload, dict):
        raise QueryError(f"request must be a JSON object, got {type(payload).__name__}")
    fields: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    for key, value in payload.items():
        name = FIELD_ALIASES.get(key, key)
        if name not in _FIELD_RULES:
            continue
        if name in fields:
            errors[key] = f"duplicates field {name!r} (alias collision)"
            continue
        fields[name] = value
        _required, minimum, description = _FIELD_RULES[name]
        if name == "initiator":
            if not isinstance(value, (int, str)) or isinstance(value, bool):
                errors[key] = f"must be a vertex id (int or string): {description}"
        elif not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            errors[key] = f"must be an integer >= {minimum}: {description}"
    for name, (required, _minimum, description) in _FIELD_RULES.items():
        if required and name not in fields:
            errors[name] = f"required: {description}"
    if errors:
        raise RequestError(errors)
    fields.setdefault("radius", 1)
    fields.setdefault("acquaintance", 1)
    activity_length = fields.pop("activity_length", None)
    if activity_length is None:
        return SGQuery(**fields)
    return STGQuery(activity_length=activity_length, **fields)


def request_for(query: Query, request_id: Any = None) -> Dict[str, Any]:
    """Encode a query as a request object (inverse of :func:`query_from_request`)."""
    payload: Dict[str, Any] = {
        "initiator": query.initiator,
        "group_size": query.group_size,
        "radius": query.radius,
        "acquaintance": query.acquaintance,
    }
    if isinstance(query, STGQuery):
        payload["activity_length"] = query.activity_length
    if request_id is not None:
        payload["id"] = request_id
    return payload


def wants_stats(payload: Any) -> bool:
    """True when a request payload opted into per-response search stats."""
    return isinstance(payload, dict) and bool(payload.get("stats"))


def response_for(
    request_id: Any, result: Union[Result, ErrorResult], include_stats: bool = False
) -> Dict[str, Any]:
    """Encode one solver result as a JSON-safe client response object.

    ``include_stats`` (the per-request ``"stats": true`` opt-in) adds a
    ``stats`` field with the solve's kernel statistics; error responses
    never carry one (the query was not solved).
    """
    if isinstance(result, ErrorResult):
        return {"id": request_id, "error": result.error}
    response: Dict[str, Any] = {
        "id": request_id,
        "feasible": result.feasible,
        "members": result.sorted_members(),
        "total_distance": result.total_distance if result.feasible else None,
        "solver": result.solver,
    }
    if isinstance(result, STGroupResult):
        response["period"] = list(result.period.as_tuple()) if result.period else None
    if include_stats:
        response["stats"] = result.stats.as_dict()
    return response


def _encode_range(value) -> Any:
    return list(value.as_tuple()) if value is not None else None


def encode_result(result: Union[Result, ErrorResult]) -> Dict[str, Any]:
    """Full-fidelity encoding of a result for the gateway/worker wire.

    Unlike :func:`response_for` this keeps the search statistics and the
    temporal bookkeeping, so :func:`decode_result` reconstructs an object the
    gateway can hand to callers exactly as if the query ran locally.  An
    :class:`ErrorResult` encodes as ``{"error": ...}``, which the gateway
    turns back into an :class:`ErrorResult`.
    """
    if isinstance(result, ErrorResult):
        return {"error": result.error}
    finite = math.isfinite(result.total_distance)
    payload: Dict[str, Any] = {
        "kind": "stg" if isinstance(result, STGroupResult) else "sg",
        "feasible": result.feasible,
        "members": result.sorted_members(),
        "total_distance": result.total_distance if finite else None,
        "solver": result.solver,
        "stats": result.stats.as_dict(),
    }
    if isinstance(result, STGroupResult):
        payload["period"] = _encode_range(result.period)
        payload["pivot"] = result.pivot
        payload["shared_slots"] = _encode_range(result.shared_slots)
    return payload


def _decode_range(value) -> Any:
    return SlotRange(int(value[0]), int(value[1])) if value is not None else None


def decode_result(payload: Dict[str, Any]) -> Result:
    """Rebuild a :class:`GroupResult`/:class:`STGroupResult` from the wire.

    Raises :class:`~repro.exceptions.QueryError` when the payload does not
    look like an :func:`encode_result` product (a protocol-level defence:
    the gateway never trusts worker output blindly).
    """
    if not isinstance(payload, dict):
        raise QueryError(f"result payload must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in ("sg", "stg"):
        raise QueryError(f"result payload has unknown kind {kind!r}")
    try:
        distance = payload["total_distance"]
        common = dict(
            feasible=bool(payload["feasible"]),
            members=frozenset(payload["members"]),
            total_distance=math.inf if distance is None else float(distance),
            solver=str(payload.get("solver", "")),
            stats=SearchStats(**payload.get("stats", {})),
        )
        if kind == "sg":
            return GroupResult(**common)
        return STGroupResult(
            period=_decode_range(payload.get("period")),
            pivot=payload.get("pivot"),
            shared_slots=_decode_range(payload.get("shared_slots")),
            **common,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise QueryError(f"malformed result payload: {exc}") from exc
