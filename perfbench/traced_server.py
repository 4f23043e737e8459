"""Traced entry point of the benchmark's server.

Usage: ``python perfbench/traced_server.py SPANS.json DATABASE [serve flags]``

Wraps the public callables of each layer the benchmark measures in a
span recorder, then runs ``repro serve`` through ``repro.cli.main``.
Spans stay in memory and are written to ``SPANS.json`` at exit, with
the execution cache's entry count when the server began shutting down
(the first ``AQPSession.close``).

A span is ``[name, request_id, thread_id, start_ns, end_ns, size]``.
``AQPServer.handle`` takes the request id from the request's ``rid``
field (the traced client sets it; the server ignores fields it does not
know) and every span opened later on the same handler thread carries
it, up to the next request.  ``size`` is the response length for
``http.dumps`` and 0 otherwise.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cache_entries: int | None = None
        self._local = threading.local()

    def wrap(self, owner: object, attr: str, name: str, sized: bool = False):
        original = getattr(owner, attr)
        local = self._local
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                spans.append(
                    [
                        name,
                        getattr(local, "rid", None),
                        threading.get_ident(),
                        start,
                        time.perf_counter_ns(),
                        len(result) if sized and result is not None else 0,
                    ]
                )

        setattr(owner, attr, traced)

    def wrap_handle(self, owner: type) -> None:
        """``AQPServer.handle``: opens a request, then records like wrap."""
        original = owner.handle
        local = self._local

        @functools.wraps(original)
        def handle(server, request):
            local.rid = request.get("rid") if isinstance(request, dict) else None
            return original(server, request)

        owner.handle = handle
        self.wrap(owner, "handle", "app.handle")


def count_cache_at_close(recorder: SpanRecorder) -> None:
    from repro.engine.cache import get_cache
    from repro.middleware.session import AQPSession

    original = AQPSession.close

    @functools.wraps(original)
    def close(session):
        if recorder.cache_entries is None:
            recorder.cache_entries = len(get_cache())
        return original(session)

    AQPSession.close = close


def install(recorder: SpanRecorder) -> None:
    import repro.middleware.session as session_module
    import repro.server.app as app_module
    import repro.server.http as http_module
    import repro.storage.io as storage_module
    from repro.core.smallgroup import SmallGroupSampling
    from repro.engine.database import Database

    recorder.wrap_handle(app_module.AQPServer)
    recorder.wrap(http_module, "dumps", "http.dumps", sized=True)
    recorder.wrap(app_module, "encode_result", "protocol.encode")
    recorder.wrap(session_module.AQPSession, "sql", "session.sql")
    recorder.wrap(session_module, "parse_query", "session.parse")
    recorder.wrap(SmallGroupSampling, "choose_samples", "session.plan")
    recorder.wrap(session_module, "execute_pieces", "combiner.execute_pieces")
    recorder.wrap(session_module, "execute", "executor.execute")
    recorder.wrap(SmallGroupSampling, "preprocess", "smallgroup.preprocess")
    recorder.wrap(SmallGroupSampling, "insert_rows", "smallgroup.insert_rows")
    recorder.wrap(Database, "append_rows", "database.append_rows")
    recorder.wrap(storage_module, "load_database", "storage.load_database")
    count_cache_at_close(recorder)


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[1:]])
    finally:
        staging = spans_path.with_suffix(".tmp")
        staging.write_text(
            json.dumps(
                {"spans": recorder.spans, "cache_entries": recorder.cache_entries or 0}
            )
        )
        staging.replace(spans_path)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
