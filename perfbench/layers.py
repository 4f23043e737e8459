"""Per-layer metrics of a traced run.

Inputs: the client's query records (each tagged with a request id), the
spans the traced server wrote at shutdown, and ``/stats`` snapshots
taken before and after the timed window.

Per query request, each layer's time is the self time of its spans in
that request (0 when the request did not reach the layer), and
``unaccounted`` is client wall time minus the self times of every span,
i.e. what happens outside any wrapped callable: sockets, kernel, HTTP
parsing.  Per request, the layer times and ``unaccounted`` sum to the
client wall time; the ``*.mean`` metrics make that sum checkable in the
output.
"""

from __future__ import annotations

from benchstats import mean, nearest_rank, outer_duration, self_times

#: Span name -> layer metric stem, in call order.
LAYERS = {
    "app.handle": "app.wait_ms",
    "session.sql": "session.self_ms",
    "session.parse": "session.parse_ms",
    "session.plan": "session.plan_ms",
    "combiner.execute_pieces": "combiner.execute_pieces_ms",
    "executor.execute": "executor.execute_ms",
    "protocol.encode": "protocol.encode_ms",
    "http.dumps": "http.dumps_ms",
}

CACHE_KINDS = ("predicate_mask", "group_ids", "joined_column", "column_codes", "zone_map")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if "share" in name or "rate" in name:
        return "ratio"
    return "count"


def _ms(ns: float) -> float:
    return ns / 1e6


def _diff(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def request_breakdown(records, spans) -> list[dict]:
    """Per query request: wall, handle, per-layer self time, unaccounted (ms)."""
    by_rid: dict[str, list] = {}
    for name, rid, _tid, start, end, size in spans:
        if rid is not None:
            by_rid.setdefault(rid, []).append((name, start, end, size))
    rows = []
    for record in records:
        own = by_rid.get(record.rid)
        if not own or not any(s[0] == "app.handle" for s in own):
            raise ValueError(f"no server spans for request {record.rid}")
        triples = [(name, start, end) for name, start, end, _ in own]
        selfs = self_times(triples)
        wall = record.ms
        handle = _ms(sum(e - s for n, s, e, _ in own if n == "app.handle"))
        rows.append(
            {
                "wall": wall,
                "handle": handle,
                "sql": _ms(sum(e - s for n, s, e, _ in own if n == "session.sql")),
                "transport": wall - handle,
                "bytes": sum(size for n, *_rest, size in own if n == "http.dumps"),
                "layers": {LAYERS[n]: _ms(v) for n, v in selfs.items()},
                "unaccounted": wall - _ms(outer_duration(triples)),
            }
        )
    return rows


def append_breakdown(appends, spans) -> list[dict]:
    """Per append request: client wall and ``AQPServer.handle`` time (ms).

    Appends carry no request id; an append's handle span is the one that
    encloses a ``database.append_rows`` span on the same thread, and the
    single writer connection answers them in the order they were sent.
    """
    inner = [(tid, start, end) for n, _r, tid, start, end, _s in spans if n == "database.append_rows"]
    handles = sorted(
        (start, end)
        for n, rid, tid, start, end, _s in spans
        if n == "app.handle"
        and any(t == tid and start <= s and e <= end for t, s, e in inner)
    )
    if len(handles) != len(appends):
        raise ValueError(f"{len(appends)} appends sent, {len(handles)} handled")
    rows = []
    for record, (start, end) in zip(sorted(appends, key=lambda a: a.sent), handles):
        wall = (record.done - record.sent) * 1000.0
        rows.append({"wall": wall, "handle": _ms(end - start), "transport": wall - _ms(end - start)})
    return rows


def per_layer_metrics(
    records,
    spans: list,
    cache_entries: int,
    appends,
    stats_before: dict,
    stats_after: dict,
    untraced_p50_ms: float,
) -> dict[str, float]:
    rows = request_breakdown(records, spans)

    def column(key):
        return [row[key] for row in rows]

    def layer(stem):
        return [row["layers"].get(stem, 0.0) for row in rows]

    def durations(name, unit=1e6):
        return [(end - start) / unit for n, _r, _t, start, end, _s in spans if n == name]

    m: dict[str, float] = {}
    m["http.transport_ms.p50"] = nearest_rank(column("transport"), 50)
    m["http.transport_ms.p90"] = nearest_rank(column("transport"), 90)
    m["http.dumps_ms.p50"] = nearest_rank(layer("http.dumps_ms"), 50)
    m["http.response_bytes.p50"] = nearest_rank(column("bytes"), 50)
    m["app.handle_ms.p50"] = nearest_rank(column("handle"), 50)
    m["app.wait_ms.p50"] = nearest_rank(layer("app.wait_ms"), 50)
    m["app.wait_ms.p90"] = nearest_rank(layer("app.wait_ms"), 90)
    m["protocol.encode_ms.p50"] = nearest_rank(layer("protocol.encode_ms"), 50)
    m["protocol.encode_ms.p90"] = nearest_rank(layer("protocol.encode_ms"), 90)
    m["answer.groups.p50"] = nearest_rank([r.answer["n_groups"] for r in records], 50)
    m["answer.rows_scanned.p50"] = nearest_rank(
        [r.answer.get("rows_scanned", 0) for r in records], 50
    )
    m["session.sql_ms.p50"] = nearest_rank(column("sql"), 50)
    m["session.parse_ms.p50"] = nearest_rank(layer("session.parse_ms"), 50)
    m["session.plan_ms.p50"] = nearest_rank(layer("session.plan_ms"), 50)
    m["combiner.execute_pieces_ms.p50"] = nearest_rank(layer("combiner.execute_pieces_ms"), 50)
    m["combiner.execute_pieces_ms.p90"] = nearest_rank(layer("combiner.execute_pieces_ms"), 90)
    m["executor.execute_ms.p50"] = nearest_rank(layer("executor.execute_ms"), 50)
    m["executor.execute_ms.p90"] = nearest_rank(layer("executor.execute_ms"), 90)
    m["unaccounted_ms.p50"] = nearest_rank(column("unaccounted"), 50)

    # Means add up: client.wall_ms.mean = sum of self_ms.mean.* + unaccounted_ms.mean.
    m["client.wall_ms.mean"] = mean(column("wall"))
    for stem in LAYERS.values():
        m[f"self_ms.mean.{stem.removesuffix('_ms')}"] = mean(layer(stem))
    m["unaccounted_ms.mean"] = mean(column("unaccounted"))

    # Appends (ingest; 0 elsewhere) and server start-up.
    append_ms = durations("database.append_rows")
    insert_ms = durations("smallgroup.insert_rows")
    m["database.append_rows_ms.p50"] = nearest_rank(append_ms, 50) if append_ms else 0.0
    m["database.append_rows_ms.max"] = max(append_ms, default=0.0)
    m["smallgroup.insert_rows_ms.p50"] = nearest_rank(insert_ms, 50) if insert_ms else 0.0
    # The request body is decoded before ``handle``: it is transport here.
    writes = append_breakdown(appends, spans)
    m["append.handle_ms.p50"] = nearest_rank([w["handle"] for w in writes], 50) if writes else 0.0
    m["append.transport_ms.p50"] = nearest_rank([w["transport"] for w in writes], 50) if writes else 0.0
    m["loadgen.append_lag_ms.max"] = max((a.lag_ms for a in appends), default=0.0)
    m["smallgroup.preprocess_s"] = sum(durations("smallgroup.preprocess", 1e9))
    m["storage.load_database_s"] = sum(durations("storage.load_database", 1e9))

    # Counters from /stats over the window.
    reg = _diff(stats_before["registry"]["counters"], stats_after["registry"]["counters"])
    hits = _diff(stats_before["cache"]["hits"], stats_after["cache"]["hits"])
    misses = _diff(stats_before["cache"]["misses"], stats_after["cache"]["misses"])

    def hit_rate(kind):
        return _share(hits.get(kind, 0), hits.get(kind, 0) + misses.get(kind, 0))

    approx_runs = reg.get("session.queries.approx", 0)
    m["app.coalesced_share"] = _share(reg.get("server.coalesced", 0), reg.get("server.requests.query", 0))
    m["cache.sql_parse.hit_rate"] = hit_rate("sql_parse")
    m["cache.plan.hit_rate"] = hit_rate("plan")
    for kind in CACHE_KINDS:
        m[f"cache.{kind}.hit_rate"] = hit_rate(kind)
    m["cache.invalidations"] = (
        stats_after["cache"]["invalidations"] - stats_before["cache"]["invalidations"]
    )
    m["cache.entries"] = cache_entries
    m["combiner.pieces_per_query"] = _share(
        reg.get("combiner.pieces_executed", 0) + reg.get("combiner.pieces_pruned", 0), approx_runs
    )
    m["combiner.pieces_pruned_per_query"] = _share(reg.get("combiner.pieces_pruned", 0), approx_runs)
    chunks = sum(reg.get(f"zonemap.chunks_{v}", 0) for v in ("accepted", "scanned", "skipped"))
    m["zonemap.chunks_skipped_share"] = _share(reg.get("zonemap.chunks_skipped", 0), chunks)
    m["zonemap.rows_touched_per_query"] = _share(
        reg.get("zonemap.rows_touched", 0), reg.get("session.queries", 0)
    )
    m["selection.sketch_hit_share"] = _share(
        reg.get("selection.sketch_hits", 0),
        reg.get("selection.sketch_hits", 0) + reg.get("selection.sketch_misses", 0),
    )
    m["ingest.rows_recomputed_per_append"] = _share(
        reg.get("ingest.rows_recomputed", 0), reg.get("ingest.events", 0)
    )
    m["trace.overhead_share"] = nearest_rank(column("wall"), 50) / untraced_p50_ms - 1.0
    return m
