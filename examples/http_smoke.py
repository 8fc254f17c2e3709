"""HTTP smoke: 2 stateless gateways over a 2-worker TCP fleet.

The acceptance run for the HTTP gateway tier (``docs/http.md``), proving
the three contracts the subsystem makes on the smallest real topology:

* **Byte-identity** — a seeded Zipfian workload POSTed through either
  gateway returns results byte-identical to encoding a serial
  ``QueryService``'s answers with ``response_for``.  The HTTP tier adds
  envelopes, never a second result encoding.
* **Statelessness** — a paginated batch is walked with each page fetched
  from a *different* gateway: the base64url cursor carries everything, so
  any replica serves any page.
* **Load shedding + drain** — a deliberately tiny gateway
  (``--max-concurrency 1 --max-queue 0``) sheds concurrent traffic with
  429 + ``Retry-After`` instead of queueing unboundedly, and a SIGTERM
  mid-request drains: the in-flight request completes, the process exits 0,
  nothing accepted is dropped.

CI runs this file as the http smoke test (non-zero exit on any violation),
so it stays a working recipe.

Run with::

    PYTHONPATH=src python examples/http_smoke.py
"""

import json
import threading
import time
import urllib.error
import urllib.request

from repro.experiments.workloads import generate_query_workload, workload
from repro.service import QueryService
from repro.service.codec import request_for, response_for
from repro.service.http import start_local_gateways
from repro.service.net import start_local_workers

N_WORKERS = 2
N_GATEWAYS = 2
SEED = 42
WORKLOAD_SEED = 7
N_QUERIES = 80
SKEW = 1.1


def post(url, payload, timeout=60.0):
    """POST JSON; returns (status, decoded body, headers)."""
    request = urllib.request.Request(
        f"{url}/v1/queries",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read()), dict(reply.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def canonical(responses):
    return json.dumps(responses, sort_keys=True, separators=(",", ":"))


def main() -> None:
    dataset = workload(network_size=194, schedule_days=1, seed=SEED)
    queries = generate_query_workload(
        dataset, N_QUERIES, skew=SKEW, stg_fraction=0.3, seed=WORKLOAD_SEED
    )
    payloads = [request_for(query, request_id=i) for i, query in enumerate(queries)]
    print(f"workload: {len(queries)} Zipfian queries over {dataset.graph.vertex_count} people")

    # The reference answers: a serial in-process service on the same dataset.
    with QueryService(dataset.graph, dataset.calendars, backend="serial") as serial:
        expected = [
            response_for(i, result)
            for i, result in enumerate(serial.solve_many(queries))
        ]

    workers = start_local_workers(N_WORKERS, seed=SEED)
    try:
        print(f"workers:  {workers.connect_spec()}")
        gateways = start_local_gateways(
            N_GATEWAYS, connect=workers.connect_spec(), seed=SEED
        )
        try:
            print(f"gateways: {', '.join(gateways.addresses)}")

            # 1. Byte-identity through each gateway independently.
            for url in gateways.addresses:
                status, body, _ = post(url, {"queries": payloads, "page_size": 1024})
                assert status == 200, f"batch POST failed: {status} {body}"
                assert body["total"] == len(payloads)
                assert canonical(body["results"]) == canonical(expected), (
                    f"gateway {url} diverged from the serial service"
                )
            print(f"byte-identity: {len(payloads)} results identical via each gateway")

            # 2. Stateless pagination: walk the cursor across *alternating*
            # gateways; the reassembled pages must equal the full batch.
            collected, cursor, hop = [], None, 0
            while True:
                url = gateways.addresses[hop % len(gateways.addresses)]
                body_payload = {"queries": payloads, "page_size": 16}
                if cursor is not None:
                    body_payload["cursor"] = cursor
                status, body, _ = post(url, body_payload)
                assert status == 200, f"paginated POST failed: {status} {body}"
                collected.extend(body["results"])
                cursor = body["next_cursor"]
                hop += 1
                if cursor is None:
                    break
            assert canonical(collected) == canonical(expected), "paginated walk diverged"
            print(f"pagination: {hop} pages served by alternating gateways, identical")

            # 3. Health: both gateways see the whole fleet alive.
            for url in gateways.addresses:
                with urllib.request.urlopen(f"{url}/health", timeout=10) as reply:
                    health = json.loads(reply.read())
                assert health["status"] == "ok", health
                assert [w["alive"] for w in health["workers"]] == [True] * N_WORKERS
            print("health: both gateways report the 2-worker fleet alive")
        finally:
            gateways.close()

        # 4. Induced overload: a one-slot, zero-queue gateway must shed
        # concurrent batches with 429 + Retry-After (never hang, never 5xx).
        tiny = start_local_gateways(
            1,
            connect=workers.connect_spec(),
            seed=SEED,
            max_concurrency=1,
            max_queue=0,
            extra_args=["--admit-timeout", "0.2"],
        )
        try:
            url = tiny.addresses[0]
            outcomes = []
            heavy = {"queries": payloads}  # the full workload per request

            def fire():
                outcomes.append(post(url, heavy, timeout=120.0))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(180)
            statuses = sorted(status for status, _, _ in outcomes)
            shed = [
                (body, headers)
                for status, body, headers in outcomes
                if status == 429
            ]
            served = [body for status, body, _ in outcomes if status == 200]
            assert shed, f"no request was shed under 6x overload (statuses: {statuses})"
            assert served, f"no request was served under overload (statuses: {statuses})"
            assert set(statuses) <= {200, 429}, f"unexpected statuses: {statuses}"
            for body, headers in shed:
                assert int(headers["Retry-After"]) >= 1, "429 without Retry-After"
                assert body["retry_after"] >= 1
            for body in served:
                assert canonical(body["results"]) == canonical(expected)
            print(
                f"load shedding: {len(served)} served + {len(shed)} shed with "
                f"Retry-After (of {len(outcomes)} concurrent)"
            )
        finally:
            tiny.close()

        # 5. SIGTERM drain: terminate a gateway with a request in flight;
        # the request must complete (zero dropped) and the process exit 0.
        drained = start_local_gateways(1, connect=workers.connect_spec(), seed=SEED)
        process = drained.processes[0]
        url = drained.addresses[0]
        outcome = []
        client = threading.Thread(
            target=lambda: outcome.append(post(url, {"queries": payloads}, timeout=120.0))
        )
        client.start()
        time.sleep(0.05)  # let the request reach the gateway
        process.terminate()  # SIGTERM mid-request
        client.join(120)
        process.wait(60)
        drained.close()
        assert outcome, "client thread never completed"
        status, body, _ = outcome[0]
        assert status == 200, f"in-flight request dropped across SIGTERM: {status} {body}"
        assert canonical(body["results"]) == canonical(expected)
        assert process.returncode == 0, (
            f"drained gateway exited {process.returncode}, expected 0"
        )
        print("drain: SIGTERM mid-request answered in full, gateway exited 0")
    finally:
        workers.close()

    print("HTTP SMOKE PASSED")


if __name__ == "__main__":
    main()
