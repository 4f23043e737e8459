"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

import serverproc

from benchstats import (
    MIN_BEYOND,
    due_times,
    min_samples,
    nearest_rank,
    open_loop_latency,
    outer_duration,
    self_times,
)
from layers import request_breakdown
from loadgen import AppendRecord, QueryRecord, Window, open_loop_appends


# -- nearest-rank percentiles ------------------------------------------------
def test_nearest_rank_picks_the_ranked_sample():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    assert nearest_rank(values[::-1], 90) == 90
    assert nearest_rank(values, 50) == 50


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    assert min_samples(99) == 1000
    nearest_rank(range(100), 90)
    with pytest.raises(ValueError):
        nearest_rank(range(99), 90)
    with pytest.raises(ValueError):
        nearest_rank(range(19), 50)
    values = range(min_samples(95))
    rank = sorted(values).index(nearest_rank(values, 95)) + 1
    assert len(values) - rank == MIN_BEYOND


# -- span self time ------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        ("handle", 0, 100),
        ("sql", 10, 70),
        ("parse", 12, 20),
        ("pieces", 20, 60),
        ("encode", 70, 90),
    ]
    selfs = self_times(spans)
    assert selfs == {"handle": 20, "sql": 12, "parse": 8, "pieces": 40, "encode": 20}
    assert sum(selfs.values()) == outer_duration(spans) == 100


def test_self_time_adds_repeated_names_and_separate_roots():
    spans = [("handle", 0, 50), ("plan", 5, 15), ("plan", 20, 25), ("dumps", 60, 64)]
    selfs = self_times(spans)
    assert selfs == {"handle": 35, "plan": 15, "dumps": 4}
    assert outer_duration(spans) == 54


def test_self_time_rejects_crossing_spans():
    with pytest.raises(ValueError):
        self_times([("a", 0, 10), ("b", 5, 15)])


def test_layers_and_unaccounted_sum_to_wall_time():
    record = QueryRecord(index=0, mode="approx", rid="r-0", start=1.0, end=1.050)
    ms = 1_000_000
    spans = [
        ["app.handle", "r-0", 1, 0, 8 * ms, 0],
        ["session.sql", "r-0", 1, 1 * ms, 6 * ms, 0],
        ["combiner.execute_pieces", "r-0", 1, 2 * ms, 5 * ms, 0],
        ["protocol.encode", "r-0", 1, 6 * ms, 7 * ms, 0],
        ["http.dumps", "r-0", 1, 8 * ms, 9 * ms, 321],
        ["app.handle", None, 2, 0, 99 * ms, 0],  # another request: ignored
    ]
    (row,) = request_breakdown([record], spans)
    assert row["transport"] == pytest.approx(42.0)
    assert row["unaccounted"] == pytest.approx(41.0)
    assert row["bytes"] == 321
    assert sum(row["layers"].values()) + row["unaccounted"] == pytest.approx(row["wall"])


# -- open-loop due times -------------------------------------------------------
def test_latency_counts_from_due_time_after_a_stall():
    due = due_times(10.0, 0.5, 4)
    assert due == [10.0, 10.5, 11.0, 11.5]
    # The first operation stalls for 1.2 s; the next two are sent late.
    sent = [10.0, 11.2, 11.3, 11.5]
    done = [11.2, 11.3, 11.4, 11.6]
    latencies = [open_loop_latency(d, e) for d, e in zip(due, done)]
    assert latencies == pytest.approx([1.2, 0.8, 0.4, 0.1])
    lags = [AppendRecord(d, s, e).lag_ms for d, s, e in zip(due, sent, done)]
    assert lags == pytest.approx([0.0, 700.0, 300.0, 0.0])


class _SlowSender:
    """Stand-in for ``AppendSender``: the first append stalls."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def send(self, body):
        self.calls += 1
        time.sleep(self.stall if self.calls == 1 else 0.0)


def test_open_loop_writer_keeps_its_schedule():
    window = Window(seconds=0.0, min_queries=0, writers=1)
    records: list[AppendRecord] = []
    open_loop_appends(_SlowSender(0.25), [b"{}"] * 4, 0.05, window, records)
    assert [r.due - window.start for r in records] == pytest.approx([0, 0.05, 0.10, 0.15])
    # Appends queued behind the stall are charged from their due time.
    assert records[1].latency_ms >= 190
    assert records[1].lag_ms >= 190
    assert window.appends_done == window.appends_started == 4
    assert window.writers == 0 and not window.more()


# -- server lifecycle ----------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent


def test_launch_fails_fast_when_the_server_exits():
    start = time.perf_counter()
    with pytest.raises(serverproc.LaunchError, match="exited with 3"):
        serverproc.ServerProcess([sys.executable, "-c", "raise SystemExit(3)"], ROOT)
    assert time.perf_counter() - start < 10


def test_unhealthy_server_is_killed_and_reported(monkeypatch):
    monkeypatch.setattr(serverproc, "STARTUP_TIMEOUT_S", 1.0)
    monkeypatch.setattr(serverproc, "STOP_TIMEOUT_S", 0.5)
    # Prints the banner but never serves, and ignores SIGINT.
    script = (
        "import signal, time; signal.signal(signal.SIGINT, signal.SIG_IGN); "
        "print('serving db on http://127.0.0.1:9 (x)', flush=True); time.sleep(60)"
    )
    launched = []
    real_stop = serverproc.ServerProcess.stop

    def stop(self):
        launched.append(self)
        return real_stop(self)

    monkeypatch.setattr(serverproc.ServerProcess, "stop", stop)
    with pytest.raises(serverproc.LaunchError, match="not ok within"):
        serverproc.ServerProcess([sys.executable, "-c", script], ROOT)
    (server,) = launched
    assert server.clean_exit is False
    assert server._proc.poll() is not None
