"""Benchmark of the 9/5 pipeline and the HTTP service; one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide_tree --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test is the checkout's own ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

WORKLOADS = ("wide_tree", "deep_chain", "long_horizon", "service_mix")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE.parent))
    _compile_sources()
    if args.workload == "service_mix":
        from perfbench import service_mix

        outcome, values = service_mix.run(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        from perfbench import inprocess

        outcome, values = inprocess.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT
        )

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


def _compile_sources() -> None:
    """Byte-compile ``src`` first, so that every fresh start loads the same
    cached bytecode instead of the first one compiling it."""
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)


if __name__ == "__main__":
    sys.exit(main())
