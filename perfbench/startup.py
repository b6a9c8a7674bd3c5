"""Set-up time: fresh interpreters, timed from spawn until ready.

Inputs are made by the caller before any clock starts.  Each function
times one start; the caller takes the median of several.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: Seconds any one start may take before the run is abandoned.
START_TIMEOUT = 120.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_cold_solve(root: Path, body: dict) -> float:
    """Spawn → ``import repro`` → one solve of ``body`` → "ready"."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "cold_solve.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(root),
        cwd=root,
    )
    try:
        proc.stdin.write(json.dumps(body).encode())
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        if not line.startswith(b"ready"):
            raise RuntimeError(f"cold solve did not get ready: {line!r}")
        proc.stdout.read()
        if proc.wait(timeout=START_TIMEOUT) != 0:
            raise RuntimeError(f"cold solve exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


class Server:
    """``active-time serve --port 0`` in its own process."""

    def __init__(self, root: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(root),
            cwd=root,
        )
        try:
            line = self.proc.stdout.readline().decode()
            match = re.search(r"http://[\w.\-]+:\d+", line)
            if match is None:
                raise RuntimeError(f"server did not announce its port: {line!r}")
            self.url = match.group(0)
        except BaseException:
            self.stop()
            raise

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, timeout=START_TIMEOUT)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def time_server_start(root: Path, body: dict) -> tuple[float, Server]:
    """Spawn → ``/healthz`` answers → one ``/solve`` of ``body``.

    Returns the time and the server, still running.
    """
    t0 = perf_counter()
    server = Server(root)
    try:
        client = server.client()
        client.wait_healthy(timeout=START_TIMEOUT)
        client.solve(body["instance"])
    except BaseException:
        server.stop()
        raise
    return perf_counter() - t0, server
