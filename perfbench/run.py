"""Served-AQP benchmark: ``repro serve`` under four HTTP workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit status is non-zero when an answer is wrong, a
server does not stop cleanly, or the run cannot complete.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchdata import append_bodies, cache_dir, load_inputs, stored_database
from benchstats import nearest_rank
from layers import per_layer_metrics, unit_of
from loadgen import (
    AppendRecord,
    AppendSender,
    Window,
    closed_loop,
    open_loop_appends,
    query_once,
    request_id,
    run_threads,
)
from references import References, accuracy, ingest_replay
from serverproc import ServerProcess, serve_argv, traced_serve_argv

ROOT = Path(__file__).resolve().parent.parent

#: Percentiles need 10 samples beyond them: p90 needs 100 queries, p50 20.
MIN_QUERIES = 100
#: Appends per run: ``ingest``'s open-loop writer sends them one per
#: interval (its window lasts until the last is answered); every other
#: workload sends them closed-loop to its first server (the append probe).
APPENDS = 40
APPEND_INTERVAL_S = 0.3
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "qps": "1/s",
    "append_p50_ms": "ms",
    "rel_err": "ratio",
    "pct_groups_missed": "%",
    "ci_coverage": "ratio",
    "server_rss_mb": "MiB",
}


@dataclass
class Tally:
    """Requests attempted; failures (429, 504, transport) and wrong results
    (answer mismatches, unclean server exits), which also count as failed."""

    attempted: int = 0
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def server_stopped(self, server) -> None:
        self.attempted += 1
        if not server.clean_exit:
            self.wrong.append(f"server {server.pid} did not exit cleanly")


@dataclass
class Phase:
    """What one server saw during one run of a workload."""

    timed: list = field(default_factory=list)
    appends: list = field(default_factory=list)
    #: Queries outside the window (warm-up, probes, final round).
    untimed: list = field(default_factory=list)
    probe_appends: list = field(default_factory=list)
    elapsed: float = 0.0
    rss_mb: float = 0.0
    #: Approximate answers scored for accuracy.
    scored: list = field(default_factory=list)
    stats: tuple | None = None


class Run:
    """One workload against one server, for one seed."""

    def __init__(self, workload, inputs, refs, bodies, seconds):
        self.workload = workload
        self.inputs = inputs
        self.refs = refs
        self.bodies = bodies
        self.seconds = seconds
        self.traced = False
        #: ``ingest`` only: the serial replay with the same appends.
        self.replay: dict | None = None

    # -- workloads -----------------------------------------------------
    def drive(self, server, tag: str | None) -> Phase:
        from repro.client import ReproClient

        phase = Phase()
        clients = [ReproClient(port=server.port) for _ in range(2)]
        try:
            getattr(self, f"_{self.workload}")(server, clients, phase, tag)
        finally:
            for client in clients:
                client.close()
        return phase

    def _window(self, phase, clients, targets, window) -> None:
        before = clients[0].stats() if self.traced else None
        window.start = time.perf_counter()
        run_threads(targets)
        window.more()
        phase.elapsed = window.elapsed
        if self.traced:
            phase.stats = (before, clients[0].stats())

    def _panel_round(self, client, phase, order, tag) -> list:
        records = [
            query_once(client, self.inputs.pool, i, "approx", request_id(tag, n))
            for n, i in enumerate(order)
        ]
        phase.untimed.extend(records)
        return records

    def append_probe(self, server) -> list:
        """The append probe: closed-loop appends to a freshly started server."""
        sender = AppendSender(server.port)
        records = []
        try:
            for body in self.bodies:
                sent = time.perf_counter()
                error = sender.send(body)
                records.append(AppendRecord(sent, sent, time.perf_counter(), error))
        finally:
            sender.close()
        return records

    def _adhoc(self, server, clients, phase, tag):
        window = Window(self.seconds, MIN_QUERIES)
        self._window(phase, clients, [lambda: closed_loop(
            clients[0], self.inputs.pool, itertools.cycle(self.inputs.sequence()),
            "approx", window, phase.timed, tag,
        )], window)
        phase.rss_mb = server.peak_rss_mb()
        # The sequence starts with the accuracy set: score its first round.
        phase.scored = phase.timed[: len(self.inputs.accuracy_set)]

    def _dashboard(self, server, clients, phase, tag):
        orders = [self.inputs.panel_order(c) for c in range(2)]
        first = self._panel_round(clients[0], phase, orders[0], tag and f"{tag}w0")
        self._panel_round(clients[1], phase, orders[1], tag and f"{tag}w1")
        window = Window(self.seconds, MIN_QUERIES)
        self._window(phase, clients, [
            (lambda c: lambda: closed_loop(
                clients[c], self.inputs.pool, itertools.cycle(orders[c]),
                "approx", window, phase.timed,
                tag and f"{tag}c{c}",
            ))(c) for c in range(2)
        ], window)
        phase.rss_mb = server.peak_rss_mb()
        phase.scored = first

    def _exact_scan(self, server, clients, phase, tag):
        window = Window(self.seconds, MIN_QUERIES)
        self._window(phase, clients, [lambda: closed_loop(
            clients[0], self.inputs.pool, itertools.cycle(self.inputs.sequence()),
            "exact", window, phase.timed, tag,
        )], window)
        phase.rss_mb = server.peak_rss_mb()
        probe = self._panel_round(clients[0], phase, self.inputs.panel, tag and f"{tag}p")
        phase.scored = probe

    def _ingest(self, server, clients, phase, tag):
        order = self.inputs.panel_order(0)
        self._panel_round(clients[0], phase, order, tag and f"{tag}w")
        window = Window(self.seconds, MIN_QUERIES, writers=1)
        sender = AppendSender(server.port)
        try:
            self._window(phase, clients, [
                lambda: closed_loop(
                    clients[0], self.inputs.pool, itertools.cycle(order), "approx",
                    window, phase.timed, tag,
                ),
                lambda: open_loop_appends(
                    sender, self.bodies, APPEND_INTERVAL_S, window, phase.appends
                ),
            ], window)
        finally:
            sender.close()
        phase.rss_mb = server.peak_rss_mb()
        final = self._panel_round(clients[0], phase, self.inputs.panel, tag and f"{tag}f")
        for record in final:
            record.appends_done = record.appends_started = len(phase.appends)
        phase.scored = final

    # -- checks --------------------------------------------------------
    def check(self, phase: Phase, tally: "Tally") -> None:
        """Count every request of a phase; record failures and wrong answers."""
        queries = phase.timed + phase.untimed
        appends = phase.appends + phase.probe_appends
        if self.workload == "ingest":
            self.replay = ingest_replay(self.refs.cache, self.inputs, self.bodies)
        else:
            self.refs.ensure(
                approx={r.index for r in queries if r.mode == "approx"},
                exact={r.index for r in queries if r.mode == "exact"},
            )
        tally.attempted += len(queries) + len(appends)
        tally.errors += [f"append: {a.error}" for a in appends if a.error]
        for record in queries:
            if record.error:
                tally.errors.append(f"query {record.index}: {record.error}")
            elif not self._matches(record):
                tally.wrong.append(
                    f"query {record.index} ({record.mode}): fingerprint "
                    f"{record.fingerprint} differs from the serial replay"
                )

    def _matches(self, record) -> bool:
        if record.fingerprint != record.claimed:
            return False
        if record.mode == "exact":
            return record.fingerprint == self.refs.exact_fp[str(record.index)]
        if self.workload != "ingest":
            return record.fingerprint == self.refs.approx_fp[str(record.index)]
        # The answer must be the replay's after some number of appends the
        # request could have seen: at least those done before it was
        # sent, at most those sent before it was answered.
        slot = self.inputs.panel.index(record.index)
        states = self.replay["fingerprints"]
        return any(
            states[k][slot] == record.fingerprint
            for k in range(record.appends_done, record.appends_started + 1)
        )

    def accuracy(self, phase: Phase) -> dict[str, float]:
        if self.workload == "ingest":
            truth = self.replay["final_exact"]
        else:
            truth = self.refs.exact
        return accuracy(
            [(truth[str(r.index)], r.answer) for r in phase.scored if r.wire is not None]
        )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def end_to_end(run: Run, phase: Phase, setups: list[float]) -> dict[str, float]:
    latencies = [r.ms for r in phase.timed]
    answered = sum(1 for r in phase.timed if r.error is None)
    appends = phase.appends or phase.probe_appends
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": nearest_rank(latencies, 50),
        "query_p90_ms": nearest_rank(latencies, 90),
        "qps": answered / phase.elapsed,
        "append_p50_ms": nearest_rank([a.latency_ms for a in appends], 50),
        **run.accuracy(phase),
        "server_rss_mb": phase.rss_mb,
    }
    return metrics


def untraced(run: Run, db_dir: Path, tally: Tally) -> dict[str, float]:
    """End-to-end metrics: ``SETUP_LAUNCHES`` launches, the last one loaded."""
    setups = []
    probe = []
    for launch in range(SETUP_LAUNCHES - 1):
        with ServerProcess(serve_argv(db_dir), ROOT) as server:
            setups.append(server.setup_s)
            if launch == 0 and run.workload != "ingest":
                probe = run.append_probe(server)
        tally.server_stopped(server)
    with ServerProcess(serve_argv(db_dir), ROOT) as server:
        setups.append(server.setup_s)
        phase = run.drive(server, None)
    tally.server_stopped(server)
    phase.probe_appends = probe
    run.check(phase, tally)
    return end_to_end(run, phase, setups)


def traced(run: Run, db_dir: Path, tally: Tally) -> dict[str, float]:
    """Per-layer metrics: an untraced phase, then the same load traced."""
    with ServerProcess(serve_argv(db_dir), ROOT) as server:
        plain = run.drive(server, None)
    tally.server_stopped(server)
    run.traced = True
    with tempfile.TemporaryDirectory(dir=run.refs.cache) as scratch:
        spans_path = Path(scratch) / "spans.json"
        with ServerProcess(traced_serve_argv(ROOT, spans_path, db_dir), ROOT) as server:
            phase = run.drive(server, "r")
        tally.server_stopped(server)
        dump = json.loads(spans_path.read_text())
    run.check(plain, tally)
    run.check(phase, tally)
    return per_layer_metrics(
        [r for r in phase.timed if r.wire is not None],
        dump["spans"],
        dump["cache_entries"],
        phase.appends,
        *phase.stats,
        nearest_rank([r.ms for r in plain.timed], 50),
    )


WORKLOADS = ("adhoc", "dashboard", "exact_scan", "ingest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (context managers unwind).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.storage.io import load_database

    cache = cache_dir(ROOT)
    db_dir = stored_database(cache)
    db = load_database(db_dir)
    inputs = load_inputs(cache, db, db_dir, args.seed)
    bodies = append_bodies(db, args.seed, APPENDS)
    refs = References(cache, inputs, db)
    run = Run(args.workload, inputs, refs, bodies, args.seconds)
    tally = Tally()
    metrics = (traced if args.trace else untraced)(run, db_dir, tally)

    for problem in (tally.wrong + tally.errors)[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    units = {name: END_TO_END_UNITS.get(name) or unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{args.workload:>10} {name:<40} {value:14.4f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not tally.wrong,
                "attempted": tally.attempted,
                "failed": len(tally.errors) + len(tally.wrong),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
