"""Check the paper's invariants on large trees; exit non-zero on any violation.

The fuzz corpus stops at 12 jobs.  This script runs ``solve_nested`` on
three large laminar instances and applies the ``repro.verify`` property
checks to each: schedule validity, the Lemma 3.1 push-down invariant,
Claim 1, the Lemma 3.3 budget, the reference Algorithm 1, the Section
4.2 typing, the Lemma 4.1 node flow, no repairs, and
``LP ≤ ALG ≤ (9/5)·LP``.

The instances, at ``--scale 1``:

* ``wide_star(1600)`` — one window over 1600 disjoint groups;
* a 300-job random laminar tree;
* ``deep_chain(150)`` — 150 nested windows.

``--scale`` multiplies every size (the tier-1 tests run it at 0.1).
Run from the repository root::

    python scripts/scale_check.py [--scale 1.0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.instances.generators import deep_chain, random_laminar, wide_star  # noqa: E402
from repro.util.numeric import SUM_EPS  # noqa: E402
from repro.verify.oracle import verify_instance  # noqa: E402


def instances(scale: float):
    """The three large instances, sizes multiplied by ``scale``."""
    wide = max(3, round(1600 * scale))
    jobs = max(10, round(300 * scale))
    depth = max(3, round(150 * scale))
    return [
        wide_star(wide, 3, seed=1),
        random_laminar(
            jobs,
            10,
            horizon=40 * jobs,
            n_windows=jobs,
            max_children=4,
            p_max=2,
            seed=2,
        ),
        deep_chain(depth, 2, seed=3),
    ]


def check(instance) -> list[str]:
    """Violations found on one instance (empty when every check holds)."""
    report = verify_instance(instance, exact_max_jobs=0)
    if report.status == "infeasible":
        return ["instance is infeasible, nothing was checked"]
    problems = [str(v) for v in report.violations]
    if report.lp_value is not None and report.active_time is not None:
        if report.lp_value > report.active_time + SUM_EPS:
            problems.append(
                f"[sandwich] LP value {report.lp_value} exceeds "
                f"ALG = {report.active_time}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    failed = 0
    for instance in instances(args.scale):
        start = time.perf_counter()
        problems = check(instance)
        seconds = time.perf_counter() - start
        status = "ok" if not problems else f"{len(problems)} violation(s)"
        print(f"{instance.name}: n={instance.n} {seconds:.2f}s {status}")
        for problem in problems[:20]:
            print(f"  {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
