"""One cold start: import ``repro``, solve the body on stdin, say "ready".

Run by :func:`perfbench.startup.time_cold_solves` in a fresh interpreter
with the checkout's ``src`` on ``PYTHONPATH``; the parent stops its clock
at the "ready" line.
"""

import json
import sys


def main() -> int:
    body = json.loads(sys.stdin.read())
    from repro.core.algorithm import solve_nested
    from repro.instances.io import instance_from_dict

    result = solve_nested(instance_from_dict(body["instance"]))
    print(f"ready {result.active_time}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
