"""Reference answers and accuracy scoring, computed in the benchmark's
own process outside every timed window.

* Approximate answers are replayed serially through an in-process
  ``AQPSession`` over the same stored data, with the technique ``repro
  serve`` installs by default; served answers must be fingerprint-equal.
* Exact answers come from ``repro.engine.executor.execute``.  The
  execution cache is cleared every :data:`CLEAR_EVERY` queries so the
  reference pass stays small.
* ``ingest`` is replayed with the same appends, panel answers recorded
  after each one.

References depend only on the stored data, the program and the inputs,
so they are kept in the run cache (``benchdata.cache_dir``) and each is
computed once.
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

CLEAR_EVERY = 16


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _store(path: Path, data: dict) -> None:
    staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
    staging.write_text(json.dumps(data))
    os.replace(staging, path)


def _serve_session(db_dir: Path):
    """A session set up exactly as ``repro serve DATABASE`` sets up its own."""
    from repro.cli import build_parser
    from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
    from repro.middleware.session import AQPSession
    from repro.storage.io import load_database

    args = build_parser().parse_args(["serve", str(db_dir)])
    session = AQPSession(load_database(db_dir))
    session.install(
        SmallGroupSampling(SmallGroupConfig(base_rate=args.base_rate))
    )
    return session


def _approx_fingerprint(session, sql: str) -> str:
    from repro.server.protocol import encode_result

    return encode_result(session.sql(sql, mode="approx"))["fingerprint"]


def _exact_answers(db, sqls: list[str]) -> list[dict]:
    from repro.engine.cache import get_cache
    from repro.engine.executor import execute
    from repro.server.protocol import encode_exact
    from repro.sql.parser import parse_query

    out = []
    for i, sql in enumerate(sqls):
        if i % CLEAR_EVERY == 0:
            get_cache().clear()
        out.append(encode_exact(execute(db, parse_query(sql))))
    get_cache().clear()
    return out


class References:
    """Approximate fingerprints and exact answers per pool query."""

    def __init__(self, cache: Path, inputs, db) -> None:
        self.cache = cache
        self._path = cache / "references.json"
        self._inputs = inputs
        self._db = db
        data = _load(self._path)
        self.approx_fp: dict[str, str] = data.get("approx_fp", {})
        self.exact_fp: dict[str, str] = data.get("exact_fp", {})
        self.exact: dict[str, dict] = data.get("exact", {})

    def ensure(self, approx: set[int], exact: set[int]) -> None:
        """Compute whatever references of these pool queries are missing.

        Full exact answers are kept for the accuracy set only; other
        queries keep their fingerprint.
        """
        from repro.server.protocol import answer_fingerprint

        pool = self._inputs.pool
        keep_full = set(self._inputs.accuracy_set)
        exact |= keep_full
        # Approximate answers are cheap: the first miss replays the whole pool.
        missing_approx = (
            [i for i in range(len(pool)) if str(i) not in self.approx_fp]
            if any(str(i) not in self.approx_fp for i in approx)
            else []
        )
        missing_exact = sorted(
            i
            for i in exact
            if str(i) not in self.exact_fp
            or (i in keep_full and str(i) not in self.exact)
        )
        if not missing_approx and not missing_exact:
            return
        if missing_approx:
            session = _serve_session(self._inputs.db_dir)
            for i in missing_approx:
                self.approx_fp[str(i)] = _approx_fingerprint(session, pool[i])
            session.close()
            del session
            gc.collect()
        answers = _exact_answers(self._db, [pool[i] for i in missing_exact])
        for i, answer in zip(missing_exact, answers):
            self.exact_fp[str(i)] = answer_fingerprint({"exact": answer})
            if i in keep_full:
                self.exact[str(i)] = answer
        _store(
            self._path,
            {"approx_fp": self.approx_fp, "exact_fp": self.exact_fp, "exact": self.exact},
        )


def ingest_replay(cache: Path, inputs, bodies: list[bytes]) -> dict:
    """Serial replay of ``ingest``: panel fingerprints after each append.

    Returns ``{"fingerprints": [[fp per panel query] per appends applied],
    "final_exact": {pool index: exact answer after the last append}}``.
    Each append body goes through the same JSON decoding and column
    building as the server's ``/append``.
    """
    from repro.engine.column import Column
    from repro.engine.table import Table

    path = cache / f"ingest_seed{inputs.seed}_n{len(bodies)}.json"
    cached = _load(path)
    if cached:
        return cached
    session = _serve_session(inputs.db_dir)
    panel = inputs.panel
    pool = inputs.pool
    states = [[_approx_fingerprint(session, pool[i]) for i in panel]]
    for body in bodies:
        request = json.loads(body)
        table = request["table"]
        batch = Table(
            table,
            {name: Column.from_values(v) for name, v in request["rows"].items()},
        )
        session.append_rows(table, batch)
        states.append([_approx_fingerprint(session, pool[i]) for i in panel])
    final = _exact_answers(session.db, [pool[i] for i in panel])
    result = {
        "fingerprints": states,
        "final_exact": {str(i): a for i, a in zip(panel, final)},
    }
    session.close()
    _store(path, result)
    return result


def accuracy(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """``rel_err``, ``pct_groups_missed`` and ``ci_coverage`` of wire answers.

    ``pairs`` are ``(exact answer, approximate answer)`` in wire form.
    RelErr and PctGroups come from ``repro.metrics.error.score`` per
    query and are averaged over queries; coverage is the share of
    non-exact group estimates whose served interval holds the exact value.
    """
    from repro.metrics.error import score

    rel, missed = [], []
    covered = estimated = 0
    for exact, approx in pairs:
        truth = {tuple(g["key"]): g["values"][0] for g in exact["groups"]}
        estimate = {tuple(g["key"]): g["estimates"][0] for g in approx["groups"]}
        result = score(truth, estimate)
        rel.append(result.rel_err)
        missed.append(result.pct_groups)
        for group in approx["groups"]:
            key = tuple(group["key"])
            if group["exact"][0] or key not in truth:
                continue
            low, high = group["intervals"][0]
            estimated += 1
            # A non-finite bound travels as null and covers nothing.
            covered += low is not None and high is not None and low <= truth[key] <= high
    return {
        "rel_err": sum(rel) / len(rel),
        "pct_groups_missed": sum(missed) / len(missed),
        "ci_coverage": covered / estimated if estimated else 0.0,
    }
