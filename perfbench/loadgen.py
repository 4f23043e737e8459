"""Load generation: closed-loop query clients and an open-loop writer.

All clients live in the benchmark's single process, one thread and one
``ReproClient`` connection each.  A closed-loop client sends its next
request when the previous one has answered.  The open-loop writer sends
appends on a fixed schedule and times each from when it was due.
"""

from __future__ import annotations

import functools
import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from benchstats import due_times, open_loop_latency


@dataclass
class QueryRecord:
    """One query request as the client saw it."""

    index: int
    mode: str
    rid: str | None
    start: float
    end: float
    error: str | None = None
    #: The response's ``answer`` object and ``fingerprint``, as received.
    wire: dict | None = None
    claimed: str | None = None
    #: Appends completed before the request was sent, and appends sent
    #: before its answer arrived: the snapshots it may have read.
    appends_done: int = 0
    appends_started: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def answer(self) -> dict:
        return self.wire[self.mode]

    @functools.cached_property
    def fingerprint(self) -> str:
        """Fingerprint of the answer as received, recomputed here (outside
        any window): it also catches answers altered after the server
        fingerprinted them."""
        from repro.server.protocol import answer_fingerprint

        return answer_fingerprint(self.wire)


@dataclass
class AppendRecord:
    due: float
    sent: float
    done: float
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return open_loop_latency(self.due, self.done) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Window:
    """The timed window shared by all clients of a run.

    Query clients stop once ``seconds`` have passed, the clients together
    have completed ``min_queries`` (so the reported percentiles always
    have enough samples), and no writer is still on its schedule.
    """

    seconds: float
    min_queries: int
    start: float = field(default_factory=time.perf_counter)
    completed: int = 0
    end: float | None = None
    writers: int = 0
    appends_started: int = 0
    appends_done: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def more(self) -> bool:
        with self.lock:
            if (
                time.perf_counter() - self.start < self.seconds
                or self.completed < self.min_queries
                or self.writers
            ):
                return True
            if self.end is None:
                self.end = time.perf_counter()
            return False

    def snapshot_counts(self) -> tuple[int, int]:
        with self.lock:
            return self.appends_done, self.appends_started

    @property
    def elapsed(self) -> float:
        return (self.end or time.perf_counter()) - self.start


def request_id(tag: str | None, n: int) -> str | None:
    """Id of a traced client's ``n``-th request; None when untraced."""
    return None if tag is None else f"{tag}-{n}"


def send_query(client, sql: str, mode: str, rid: str | None) -> dict:
    if rid is None:
        return client.query(sql, mode=mode)
    # Traced runs tag each request so server-side spans can be joined to
    # it; the server ignores request fields it does not know.
    return client._request("POST", "/query", {"sql": sql, "mode": mode, "rid": rid})


def query_once(
    client,
    pool,
    index: int,
    mode: str,
    rid: str | None,
    window: Window | None = None,
) -> QueryRecord:
    from repro.errors import ServerError

    done_before = window.snapshot_counts()[0] if window else 0
    start = time.perf_counter()
    try:
        body = send_query(client, pool[index], mode, rid)
        error = None
    except ServerError as exc:
        body, error = None, f"{exc.code or 'transport'}: {exc}"
    end = time.perf_counter()
    record = QueryRecord(index, mode, rid, start, end, error)
    if window is not None:
        record.appends_done = done_before
        record.appends_started = window.snapshot_counts()[1]
    if body is not None:
        record.wire, record.claimed = body["answer"], body["fingerprint"]
    return record


def closed_loop(
    client,
    pool,
    indices: Iterator[int],
    mode: str,
    window: Window,
    records: list[QueryRecord],
    tag: str | None,
) -> None:
    """Send queries back to back until the window closes."""
    n = 0
    while window.more():
        index = next(indices)
        record = query_once(client, pool, index, mode, request_id(tag, n), window)
        records.append(record)
        with window.lock:
            window.completed += 1
        n += 1


class AppendSender:
    """``/append`` requests whose bodies were encoded before the window.

    Encoding a 2,048-row batch takes the benchmark tens of milliseconds
    of interpreter time; done inside the window it would delay the query
    clients sharing this process.  One keep-alive connection.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def send(self, body: bytes) -> str | None:
        """Send one append; returns an error description, or None."""
        try:
            self._conn.request(
                "POST", "/append", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            return f"transport: {exc}"
        if response.status != 200:
            return f"HTTP {response.status}: {raw[:200]!r}"
        return None

    def close(self) -> None:
        self._conn.close()


def open_loop_appends(
    sender,
    bodies: list[bytes],
    interval: float,
    window: Window,
    records: list[AppendRecord],
) -> None:
    """Send one body per ``interval`` from the window start, on schedule.

    The caller registers the writer in ``window.writers`` before the
    window opens; it is released here when the last append is answered.
    """
    try:
        for due, body in zip(due_times(window.start, interval, len(bodies)), bodies):
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            with window.lock:
                window.appends_started += 1
            error = sender.send(body)
            done = time.perf_counter()
            with window.lock:
                window.appends_done += 1
            records.append(AppendRecord(due, sent, done, error))
    finally:
        with window.lock:
            window.writers -= 1


def run_threads(targets: list[Callable[[], None]]) -> None:
    """Run each target on its own thread; re-raise the first failure."""
    failures: list[BaseException] = []

    def guard(target):
        try:
            target()
        except BaseException as exc:  # re-raised below on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
