"""Lifecycle of one ``repro serve`` process under the benchmark.

Launch with unbuffered stdout, read the port from the banner, time until
``/healthz`` answers ok (``setup_s``), read peak memory from ``/proc``,
and stop with SIGINT — killing the process when it does not exit in time
and reporting that as an unclean exit.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Give up when a server is not healthy this long after launch.
STARTUP_TIMEOUT_S = 120.0
#: Time a server gets to exit after SIGINT before it is killed.
STOP_TIMEOUT_S = 20.0

_BANNER = re.compile(r"serving .* on http://([\d.]+):(\d+)")


class LaunchError(RuntimeError):
    """The server exited or stayed unhealthy instead of serving."""


class ServerProcess:
    """One server process; use as a context manager so it always stops."""

    def __init__(self, argv: list[str], root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.lines: list[str] = []
        self._port_ready = threading.Event()
        self.port: int | None = None
        self.clean_exit: bool | None = None
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _drain(self) -> None:
        for line in self._proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _BANNER.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._port_ready.set()
        self._port_ready.set()

    def _wait_healthy(self, start: float) -> None:
        from repro.client import ReproClient
        from repro.errors import ServerError

        deadline = start + STARTUP_TIMEOUT_S
        if not self._port_ready.wait(max(0.0, deadline - time.perf_counter())):
            raise LaunchError(f"no port banner within {STARTUP_TIMEOUT_S:g}s")
        if self.port is None:
            raise LaunchError(
                f"server exited with {self._proc.wait()} before serving:\n"
                + "\n".join(self.lines[-20:])
            )
        with ReproClient(port=self.port, timeout=5.0) as client:
            while True:
                try:
                    if client.healthz().get("ok"):
                        return
                except ServerError:
                    pass
                if self._proc.poll() is not None:
                    raise LaunchError(
                        f"server exited with {self._proc.returncode}:\n"
                        + "\n".join(self.lines[-20:])
                    )
                if time.perf_counter() > deadline:
                    raise LaunchError(
                        f"/healthz not ok within {STARTUP_TIMEOUT_S:g}s"
                    )
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Peak resident memory so far (``VmHWM``), MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> bool:
        """SIGINT, then kill after :data:`STOP_TIMEOUT_S`.

        Returns whether the server exited by itself with status 0.
        Idempotent.
        """
        if self.clean_exit is not None:
            return self.clean_exit
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
            try:
                self._proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
                self.clean_exit = False
        self._reader.join(STOP_TIMEOUT_S)
        if self.clean_exit is None:
            self.clean_exit = self._proc.returncode == 0
        return self.clean_exit

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_argv(db_dir: Path) -> list[str]:
    """``repro serve`` with its default flags; port 0 picks a free port."""
    return [sys.executable, "-m", "repro", "serve", str(db_dir), "--port", "0"]


def traced_serve_argv(root: Path, spans_path: Path, db_dir: Path) -> list[str]:
    """The same server, started through the benchmark's traced entry point."""
    return [
        sys.executable,
        str(root / "perfbench" / "traced_server.py"),
        str(spans_path),
        str(db_dir),
        "--port",
        "0",
    ]
