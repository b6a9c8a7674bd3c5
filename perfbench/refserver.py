"""Reference service: the kernel of :mod:`perfbench.calibrate` behind HTTP.

``python3 perfbench/refserver.py`` serves on a free loopback port, prints
its URL, and answers every ``POST`` by running
:func:`perfbench.calibrate.kernel` and returning the kernel's seconds as
JSON, until its standard input closes.  A request to it takes the path a
``/solve`` request takes, a fresh connection from ``urllib`` to a
thread of a ``ThreadingHTTPServer`` in another process, with a fixed
piece of work in the middle; nothing of ``repro`` is on that path.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args) -> None:
        pass

    def do_POST(self) -> None:
        from perfbench.calibrate import kernel

        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.dumps({"kernel_s": kernel()}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.calibrate import kernel

    kernel()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"http://127.0.0.1:{server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
