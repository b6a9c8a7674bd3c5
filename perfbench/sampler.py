"""Reference sampler: a process of its own beside a served workload.

``python3 perfbench/sampler.py URL`` sends a request to the reference
service at ``URL`` (:mod:`perfbench.refserver`) every :data:`PERIOD`
seconds until its standard input closes, printing
``<monotonic> <kernel seconds> <round-trip seconds>`` per request, so
the machine's speed for work served over HTTP is known throughout a
loop without taking the client's interpreter lock.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request

PERIOD = 0.1


def round_trip(url: str) -> tuple[float, float]:
    """The reference kernel's seconds and the whole request's seconds."""
    request = urllib.request.Request(
        url, data=b"{}", headers={"Content-Type": "application/json"}, method="POST"
    )
    t0 = time.perf_counter()
    with urllib.request.urlopen(request, timeout=60) as response:
        kernel_s = json.loads(response.read())["kernel_s"]
    return kernel_s, time.perf_counter() - t0


def main() -> int:
    url = sys.argv[1]
    round_trip(url)
    print("ready", flush=True)
    stop = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    while not stop.wait(PERIOD):
        t = time.monotonic()
        kernel_s, rtt = round_trip(url)
        print(f"{t!r} {kernel_s!r} {rtt!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
