"""Mixed concurrent load against a running server, with a staleness oracle.

The soak drives a live ``repro serve`` instance with the zipf-churn stream
(:func:`repro.datasets.synthetic.update_stream`): one updater connection
applies every insert/delete in stream order while N query connections fire
the stream's queries concurrently.  Every query response carries the
server's update-sequence window ``[lo, hi]`` — updates finished at
admission, updates started at completion.

The oracle then replays the updates *serially* through a fresh
:class:`~repro.engine.engine.UTKEngine` built from the same initial dataset, and accepts a concurrent answer iff it exactly matches the serial
answer at **some** update prefix within the query's window.  An answer that
matches no admissible prefix is *stale* — it could only have come from a
cache entry the maintenance sweep should have repaired or evicted — and the
soak fails.  This is linearizability checking specialized to a
single-writer stream: the window is the set of legal linearization points.
A ``"both"`` request yields two independent obligations: its UTK1 and UTK2
answers come from separate cache lookups and may legitimately reflect
different prefixes inside the same window.

Chaos mode hooks in two places without changing the oracle:

* an ``injector`` gets a callback before every update (by stream position)
  and every query (by global admission ordinal) and may kill workers,
  crash + restart the server, or sabotage the calling client's connection;
* clients run with a retry policy, so injected faults surface as retries,
  not thread deaths — the update stream still lands exactly once (txids)
  and every query still gets an answer with a valid window.

After the load drains, a **verification pass** re-queries a sample of the
workload at the final prefix with a pinned window ``[acked, acked]`` and
checks the server's applied counter equals the number of acked updates:
any acked-but-lost update makes this pass fail (the zero-lost-acks gate).
"""

from __future__ import annotations

import threading
import time

from repro.core.region import Region, hyperrectangle
from repro.serve.client import ServeClient

#: Queries re-issued at the final prefix by the verification pass.
DEFAULT_VERIFY_QUERIES = 8


def _canonical_utk1(records) -> list[int]:
    return sorted(int(i) for i in records)


def _canonical_utk2(top_k_sets) -> list[list[int]]:
    return sorted(sorted(int(i) for i in s) for s in top_k_sets)


class _Obligation:
    """One answered problem version awaiting a serial-prefix explanation."""

    __slots__ = ("event", "kind", "answer", "lo", "hi", "matched_at")

    def __init__(self, event: dict, kind: str, answer, lo: int, hi: int):
        self.event = event
        self.kind = kind  # "utk1" | "utk2"
        self.answer = answer
        self.lo = lo
        self.hi = hi
        self.matched_at: int | None = None


def _obligations_from(event: dict, response: dict, lo: int, hi: int
                      ) -> list[_Obligation]:
    fresh = []
    if "utk1" in response:
        fresh.append(_Obligation(
            event, "utk1", _canonical_utk1(response["utk1"]["records"]), lo, hi,
        ))
    if "utk2" in response:
        fresh.append(_Obligation(
            event, "utk2",
            _canonical_utk2(response["utk2"]["distinct_top_k_sets"]), lo, hi,
        ))
    return fresh


def run_soak(
    host: str,
    port: int,
    data,
    events: list[dict],
    *,
    clients: int = 4,
    timeout: float = 120.0,
    retry=None,
    injector=None,
    verify_queries: int = DEFAULT_VERIFY_QUERIES,
) -> dict:
    """Drive the stream concurrently and serially verify every answer.

    Returns a report with ``stale == 0`` iff every concurrent answer is
    explainable by a serial prefix within its admission window, and
    ``ok`` only if additionally no acked update went missing.  ``retry``
    overrides the clients' :class:`~repro.resilience.retry.RetryPolicy`;
    ``injector`` (an object with ``on_update(position, client)`` /
    ``on_query(ordinal, client)``) injects faults at deterministic
    workload positions.
    """
    updates = [e for e in events if e.get("op") in ("insert", "delete")]
    queries = [e for e in events if e.get("op") == "query"]

    def make_client() -> ServeClient:
        return ServeClient(host, port, timeout=timeout, retry=retry)

    # The serial replay reconstructs the server's state from `data`, so the
    # server must still be pristine (record ids and the update-sequence
    # windows are both counted from zero).
    with make_client() as probe:
        server_state = probe.stats()["server"]
    if server_state["updates_started"] or server_state["updates_finished"]:
        raise ValueError(
            "soak requires a freshly started server "
            f"(it already applied {server_state['updates_finished']} updates)"
        )

    obligations: list[_Obligation] = []
    answered = [0]
    retries = [0]
    collect_lock = threading.Lock()
    ordinal_lock = threading.Lock()
    next_ordinal = [0]
    errors: list[str] = []
    applied: list[dict] = []
    started = time.perf_counter()

    def run_updater() -> None:
        try:
            with make_client() as client:
                for position, event in enumerate(updates):
                    if injector is not None:
                        injector.on_update(position, client)
                    response = client.send_event(event)
                    if response["applied"] != position + 1:
                        errors.append(
                            f"update {position}: applied counter "
                            f"{response['applied']} != {position + 1}"
                        )
                        return
                    applied.append(event)
                with collect_lock:
                    retries[0] += client.retries_total
        except Exception as error:  # noqa: BLE001 - reported in the summary
            errors.append(f"updater: {type(error).__name__}: {error}")

    def run_querier(slice_events: list[dict]) -> None:
        try:
            with make_client() as client:
                for event in slice_events:
                    with ordinal_lock:
                        ordinal = next_ordinal[0]
                        next_ordinal[0] += 1
                    if injector is not None:
                        injector.on_query(ordinal, client)
                    response = client.query(
                        event["lower"], event["upper"], event["k"],
                        event.get("version", "utk1"),
                    )
                    lo = int(response["seq"]["lo"])
                    hi = int(response["seq"]["hi"])
                    fresh = _obligations_from(event, response, lo, hi)
                    with collect_lock:
                        obligations.extend(fresh)
                        answered[0] += 1
                with collect_lock:
                    retries[0] += client.retries_total
        except Exception as error:  # noqa: BLE001 - reported in the summary
            errors.append(f"querier: {type(error).__name__}: {error}")

    threads = [threading.Thread(target=run_updater, name="soak-updater")]
    client_count = max(1, int(clients))
    for index in range(client_count):
        threads.append(
            threading.Thread(
                target=run_querier,
                args=(queries[index::client_count],),
                name=f"soak-query-{index}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    load_seconds = time.perf_counter() - started

    # Verification pass: the server must sit at exactly the acked prefix
    # (zero lost acked updates), and answers there must match the serial
    # engine at that prefix — windows pinned to [acked, acked].
    acked = len(applied)
    recovered = 0
    verified = 0
    try:
        with make_client() as checker:
            final_state = checker.stats()["server"]
            recovered = int(final_state.get("recovered", 0))
            if final_state["updates_finished"] != acked:
                errors.append(
                    "lost acked updates: server finished "
                    f"{final_state['updates_finished']} != {acked} acked"
                )
            for event in queries[:max(0, int(verify_queries))]:
                response = checker.query(
                    event["lower"], event["upper"], event["k"],
                    event.get("version", "utk1"),
                )
                fresh = _obligations_from(event, response, acked, acked)
                obligations.extend(fresh)
                verified += 1
    except Exception as error:  # noqa: BLE001 - reported in the summary
        errors.append(f"verification: {type(error).__name__}: {error}")

    stale, offsets = _check_serial(data, applied, obligations)
    report = {
        "events": len(events),
        "updates": acked,
        "queries": answered[0],
        "checked": len(obligations),
        "verified": verified,
        "clients": client_count,
        "client_retries": retries[0],
        "recovered": recovered,
        "errors": errors,
        "stale": len(stale),
        "stale_details": stale[:10],
        "matched_prefix_spread": offsets,
        "load_seconds": load_seconds,
        "qps": answered[0] / load_seconds if load_seconds > 0 else 0.0,
        "ok": not errors and not stale and answered[0] == len(queries),
    }
    if injector is not None and hasattr(injector, "injected"):
        report["faults"] = injector.injected()
    return report


def _check_serial(data, updates: list[dict], obligations: list[_Obligation]
                  ) -> tuple[list[dict], dict]:
    """Replay updates serially; match each answer to a prefix in its window."""
    from repro.engine import UTKEngine

    region_memo: dict[tuple, Region] = {}

    def region_of(event: dict) -> Region:
        key = (tuple(event["lower"]), tuple(event["upper"]))
        cached = region_memo.get(key)
        if cached is None:
            cached = region_memo[key] = hyperrectangle(event["lower"], event["upper"])
        return cached

    total = len(updates)
    for obligation in obligations:  # a window beyond the applied range clamps
        obligation.hi = min(obligation.hi, total)

    engine = UTKEngine(data)
    try:
        for prefix in range(total + 1):
            for obligation in obligations:
                if obligation.matched_at is not None:
                    continue
                if not (obligation.lo <= prefix <= obligation.hi):
                    continue
                region = region_of(obligation.event)
                k = int(obligation.event["k"])
                if obligation.kind == "utk1":
                    expected = _canonical_utk1(engine.utk1(region, k).indices)
                else:
                    expected = _canonical_utk2(
                        engine.utk2(region, k).distinct_top_k_sets
                    )
                if expected == obligation.answer:
                    obligation.matched_at = prefix
            if prefix < total:
                engine.apply_updates([updates[prefix]])
    finally:
        engine.close()

    stale = [
        {
            "event": obligation.event,
            "kind": obligation.kind,
            "window": [obligation.lo, obligation.hi],
            "answer": obligation.answer,
        }
        for obligation in obligations
        if obligation.matched_at is None
    ]
    offsets: dict[str, int] = {}
    for obligation in obligations:
        if obligation.matched_at is None:
            continue
        key = str(obligation.matched_at - obligation.lo)
        offsets[key] = offsets.get(key, 0) + 1
    return stale, offsets
