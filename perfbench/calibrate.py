"""Machine-speed reference: a fixed kernel that is not part of the program.

The box this benchmark runs on is shared; its speed drifts by a fifth
within a minute.  Every run therefore times :func:`kernel` alongside the
work it measures and reports each time scaled to a machine on which the
kernel takes :data:`NOMINAL_S`: ``reported = measured * NOMINAL_S /
kernel time``.  Latencies of served requests are scaled the same way by
the round trip of a request to the kernel behind HTTP
(:func:`rtt_scale`).  The kernel mixes interpreted Python with a small HiGHS
solve through SciPy, as the pipeline does, and uses nothing from
``repro``, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import functools
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

#: The kernel's median time on the reference machine (a 2-core x86_64
#: box); reported times are in seconds of that machine.
NOMINAL_S = 0.006
#: The median round trip of a request to the reference service
#: (:mod:`perfbench.refserver`) on the same machine.
NOMINAL_RTT_S = 0.008


@functools.cache
def _lp():
    import numpy as np
    from scipy import sparse

    a = sparse.random(80, 80, density=0.06, random_state=1, format="csr")
    return -np.ones(80), a, np.ones(80)


def kernel() -> float:
    """Seconds one run of the reference kernel takes."""
    from scipy.optimize import linprog

    c, a, b = _lp()
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        table[(i * 7919) % 10007] = i
    sorted(table.items(), key=lambda kv: -kv[1])
    linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
    return perf_counter() - t0


def scale(kernel_times: list[float]) -> float:
    """Factor from measured seconds to seconds of the reference machine."""
    return NOMINAL_S / median(kernel_times)


def rtt_scale(round_trips: list[float]) -> float:
    """As :func:`scale`, for latencies of requests served over HTTP.

    A busy machine stretches a request's path, with its wake-ups of
    threads in two processes, more than it stretches the kernel alone:
    with two busy-looping processes beside the server, the median
    ``/solve`` latency doubled, the kernel's time grew by 1.8x and the
    reference round trip by 1.9x; scaled by the round trip the median
    latency moved by 1%, scaled by the kernel by 11%.
    """
    return NOMINAL_RTT_S / median(round_trips)


#: Seconds either side of a request within which round trips scale it.
WINDOW_S = 0.5


def window_scales(
    samples: list[tuple[float, float, float]],
    spans: list[tuple[float, float]],
    width: float = WINDOW_S,
) -> list[float]:
    """One :func:`rtt_scale` per ``(start, end)`` span, from the round
    trips of the ``(start, kernel, round trip)`` samples that started
    within ``width`` seconds of it, or from the nearest sample on either
    side if none did; the machine's speed drifts within a second, and a
    request is scaled by the speed around it."""
    starts = [t for t, _, _ in samples]
    if not starts or starts != sorted(starts):
        raise ValueError("no samples, or samples out of time order")
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(starts, start - width)
        hi = bisect.bisect_right(starts, end + width)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        out.append(rtt_scale([r for _, _, r in samples[lo:hi]]))
    return out


def local_scales(kernel_times: list[float], width: int = 2) -> list[float]:
    """Per-sample factors, each from the median of the ``2*width + 1``
    kernel times around the sample, so that a slow spell is scaled where
    it happened."""
    n = len(kernel_times)
    return [
        scale(kernel_times[max(0, i - width) : i + width + 1]) for i in range(n)
    ]


def calibrated_median(measure, reps: int, kernels: int = 3) -> float:
    """Median of ``reps`` calls of ``measure()`` (seconds), scaled by kernel
    runs taken before, between and after them."""
    times, values = [], []
    for _ in range(reps):
        times.extend(kernel() for _ in range(kernels))
        values.append(measure())
    times.extend(kernel() for _ in range(kernels))
    return median(values) * scale(times)


class Sampler:
    """:mod:`perfbench.sampler` and the reference service it calls
    (:mod:`perfbench.refserver`), each in its own process, for served
    workloads."""

    def __init__(self, env: dict[str, str], cwd: Path) -> None:
        here = Path(__file__).resolve().parent
        self.samples: list[tuple[float, float, float]] = []
        self.procs: list[subprocess.Popen] = []
        try:
            ref = self._spawn([str(here / "refserver.py")], env, cwd)
            url = ref.stdout.readline().decode().strip()
            if not url.startswith("http://"):
                raise RuntimeError(f"reference service did not start: {url!r}")
            self.proc = self._spawn([str(here / "sampler.py"), url], env, cwd)
            if self.proc.stdout.readline().strip() != b"ready":
                raise RuntimeError("reference sampler did not start")
        except BaseException:
            self.stop()
            raise
        # Drain the pipe as lines come, so a long loop never blocks it.
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _spawn(self, args: list[str], env, cwd) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
        )
        self.procs.append(proc)
        return proc

    def _read(self) -> None:
        for line in self.proc.stdout:
            t, k, r = line.split()
            self.samples.append((float(t), float(k), float(r)))

    def stop(self) -> None:
        """End the sampler, then the reference service, and wait for both."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc is self.procs[-1] and hasattr(self, "_reader"):
                self._reader.join(timeout=60)
            proc.stdout.close()

    def between(self, start: float, end: float) -> list[float]:
        """Kernel times of the requests that started in ``[start, end)``."""
        return [k for t, k, _ in self.samples if start <= t < end]

