"""The in-process workloads: one caller solving distinct inputs in turn.

Untraced, each timed solve is one ``solve_nested`` call on an input no
earlier solve of the run has seen, so the solver cache never answers.
Traced, untraced solves and call-by-call replays alternate on distinct
inputs; the replays give the stage times and the two medians give the
tracing overhead.  One run of the reference kernel precedes every solve,
and times are reported at the reference machine's speed
(:mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench import calibrate, inputs, startup
from perfbench.checks import Outcome, check_result
from perfbench.layers import LayerSamples
from perfbench.stats import min_samples, percentile

#: Timed solves per untraced run, at least: enough for a p90 with ten
#: samples beyond it.  ``active_time_sum`` adds up the first this many.
MIN_SOLVES = min_samples(90)
#: Traced solves per traced run, at least; the count metrics are medians
#: over the first this many.
MIN_TRACED = 31
WARMUP_SOLVES = 3
SETUP_STARTS = 5


def _solve_checked(instance, outcome: Outcome):
    """Time one ``solve_nested`` call; check its result outside the clock.

    Returns the seconds it took and its active time, ``None`` if it raised.
    """
    from repro.core.algorithm import solve_nested

    t0 = perf_counter()
    try:
        result = solve_nested(instance)
    except Exception as exc:  # a failed solve is a failed check, not a crash
        elapsed = perf_counter() - t0
        outcome.record([f"{type(exc).__name__}: {exc}"], instance.name)
        return elapsed, None
    elapsed = perf_counter() - t0
    outcome.record(
        check_result(instance, result.schedule, result.lp_value, result.repairs),
        instance.name,
    )
    return elapsed, result.active_time


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[Outcome, dict]:
    make = inputs.FAMILIES[workload]
    metrics: dict[str, float] = {}
    if not trace:
        body = _setup_body(make)
        metrics["setup_s"] = calibrate.calibrated_median(
            lambda: startup.time_cold_solve(root, body), SETUP_STARTS
        )

    from repro.core.algorithm import solve_nested

    for i in range(WARMUP_SOLVES):
        solve_nested(make(inputs.instance_seed(seed, inputs.WARMUP, i)))

    outcome = Outcome()
    if trace:
        metrics.update(_traced_loop(make, seed, seconds, outcome))
    else:
        metrics.update(_timed_loop(make, seed, seconds, outcome))
    return outcome, metrics


def _setup_body(make) -> dict:
    from repro.instances.io import instance_to_dict

    seed = inputs.instance_seed(inputs.SETUP_SEED, inputs.WARMUP, 0)
    return {"instance": instance_to_dict(make(seed, small=True))}


def _timed_loop(make, seed: int, seconds: float, outcome: Outcome) -> dict:
    times: list[float] = []
    kernel_times: list[float] = []
    active: list[int] = []
    busy = 0.0
    i = 0
    peak_rss_mb = 0.0
    while busy < seconds or i < MIN_SOLVES:
        instance = make(inputs.instance_seed(seed, inputs.TIMED, i))
        kernel_s = calibrate.kernel()
        elapsed, active_time = _solve_checked(instance, outcome)
        busy += elapsed
        i += 1
        if i == MIN_SOLVES:
            # The solve cache grows with every solve; take the high-water
            # mark after a fixed number of them.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if active_time is None:
            continue
        times.append(elapsed)
        kernel_times.append(kernel_s)
        active.append(active_time)
    ms = [
        t * s * 1000 for t, s in zip(times, calibrate.local_scales(kernel_times))
    ]
    print(
        f"measured: p50 {median(times) * 1000:.3f} ms over {len(times)} solves "
        f"(scale {calibrate.scale(kernel_times):.4f})",
        file=sys.stderr,
    )
    return {
        "active_time_sum": sum(active[:MIN_SOLVES]),
        "ok_share": 1 - outcome.failed / outcome.attempted,
        "peak_rss_mb": peak_rss_mb,
        "latency_ms_p50": median(ms),
        "latency_ms_p90": percentile(ms, 90),
        "instances_per_s": 1000 * len(ms) / sum(ms),
    }


def _traced_loop(make, seed: int, seconds: float, outcome: Outcome) -> dict:
    from repro.solver import solver_stats

    from perfbench.trace import traced_solve

    plain: list[float] = []
    kernel_times: list[float] = []
    layers = LayerSamples()
    stats_before = solver_stats()
    busy = 0.0
    i = 0
    while busy < seconds or i < 2 * MIN_TRACED:
        instance = make(inputs.instance_seed(seed, inputs.TIMED, i))
        kernel_times.append(calibrate.kernel())
        if i % 2 == 0:
            elapsed, active_time = _solve_checked(instance, outcome)
            busy += elapsed
            if active_time is not None:
                plain.append(elapsed)
        else:
            t0 = perf_counter()
            try:
                solve = traced_solve(instance)
            except Exception as exc:
                busy += perf_counter() - t0
                outcome.record([f"{type(exc).__name__}: {exc}"], instance.name)
            else:
                outcome.record(
                    check_result(instance, solve.schedule, solve.lp_value, solve.repairs),
                    instance.name,
                )
                layers.add_solve(instance, solve)
                busy += solve.seconds
        i += 1
    metrics = layers.metrics(MIN_TRACED, calibrate.scale(kernel_times))
    metrics.update(layers.solver_metrics(stats_before, solver_stats()))
    metrics["trace.overhead"] = median(
        [s.seconds for s in layers.solves]
    ) / median(plain)
    metrics.update(
        {
            "service.http_ms": 0.0,
            "service.dispatch_ms": 0.0,
            "service.split_share": 0.0,
            "service.wait_ms_p95": 0.0,
            "client.send_lag_ms_p95": 0.0,
        }
    )
    return metrics
