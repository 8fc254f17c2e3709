"""Correctness oracle: every answer against an in-process serial QueryService.

Answers are compared as the client receives them (``response_for``),
without the request id and without the opt-in ``stats`` field.  For a
workload with live writes, an answer is correct if it equals the reference
at *any* live version the fleet could have served between the request's
send and its receipt.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service import QueryService
from repro.service.codec import query_from_request, response_for

_IGNORED = ("id", "stats")


def canonical(response: Dict[str, Any]) -> str:
    """The comparable form of one client response."""
    return json.dumps(
        {key: value for key, value in response.items() if key not in _IGNORED}, sort_keys=True
    )


def request_key(payload: Dict[str, Any]) -> str:
    return canonical(payload)


class Oracle:
    """Reference answers from a serial service over the same seeded inputs."""

    def __init__(self, graph, calendars) -> None:
        self.service = QueryService(graph, calendars, backend="serial")
        self._memo: Dict[str, str] = {}

    def expected(self, payload: Dict[str, Any]) -> str:
        key = request_key(payload)
        answer = self._memo.get(key)
        if answer is None:
            result = self.service.solve(query_from_request(payload))
            answer = self._memo[key] = canonical(response_for(None, result))
        return answer

    def advance(self, mutation) -> None:
        """Move the reference one live version forward."""
        self.service.apply_mutations([mutation])
        self._memo.clear()

    def close(self) -> None:
        self.service.close()


def version_bracket(
    sent: float, received: float, writes: Sequence[Tuple[float, float, int, int]]
) -> Tuple[int, int]:
    """Live versions a read could have been served at.

    ``writes`` are ``(started, acknowledged, from_version, to_version)``
    tuples of sequential write batches.  The fleet is at least at the last
    version acknowledged before the read was sent, and at most at the last
    version whose distribution had started before the answer arrived.
    """
    acked = [w[1] for w in writes]
    started = [w[0] for w in writes]
    done = bisect.bisect_left(acked, sent)
    begun = bisect.bisect_left(started, received)
    low = writes[done - 1][3] if done else 0
    high = writes[begun - 1][3] if begun else 0
    return low, max(low, high)


def check_versioned(
    oracle: Oracle,
    trace: Sequence[Any],
    reads: Sequence[Tuple[Dict[str, Any], str, int, int]],
) -> List[bool]:
    """Check ``(payload, got, low, high)`` reads against every version in range.

    The reference walks the mutation trace forward once; each read is
    compared at each version of its bracket until one matches.
    """
    verdicts: List[Optional[bool]] = [None] * len(reads)
    by_low: Dict[int, List[int]] = {}
    for index, (_, _, low, _) in enumerate(reads):
        by_low.setdefault(low, []).append(index)
    last = max((high for _, _, _, high in reads), default=0)
    active: List[int] = []
    for version in range(last + 1):
        if version:
            oracle.advance(trace[version - 1])
        active.extend(by_low.get(version, ()))
        still: List[int] = []
        for index in active:
            payload, got, _, high = reads[index]
            if oracle.expected(payload) == got:
                verdicts[index] = True
            elif version >= high:
                verdicts[index] = False
            else:
                still.append(index)
        active = still
    return [bool(v) for v in verdicts]
