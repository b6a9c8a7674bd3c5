"""The ``service_mix`` workload: ``active-time serve`` under a request mix.

The server runs in its own process with its default single in-process
worker; this process is the only client and holds at most
:data:`CONNECTIONS` connections.  In each of :data:`ROUNDS` rounds a
closed loop measures capacity, then an open loop offered :data:`LOAD`
times that capacity measures latency, timed from each request's due
time.  Traced, the same loops run, then
the open loop's requests are sent one at a time to a fresh server, and
replayed in this process through ``SchedulingService.solve``,
``solve_nested`` on the parts and the stage-by-stage replay; each of
those passes starts from an empty solver cache, as the server did.
A sampler process calls the reference service, the kernel of
:mod:`perfbench.calibrate` behind HTTP in a process of its own,
throughout the loops.  Each closed loop's capacity is scaled by the
kernel times taken during it and each open-loop latency by the round
trips taken around it, so that both are reported at the reference
machine's speed.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter, sleep

from perfbench import calibrate, inputs, startup
from perfbench.checks import Outcome, check_result
from perfbench.layers import LayerSamples, Sample
from perfbench.stats import open_loop_times, percentile

CONNECTIONS = 2
#: Open-loop rate as a share of the closed-loop capacity measured just
#: before it in the same run.  At half the capacity a slow spell of the
#: shared machine pushed the server near saturation and moved the median
#: latency by up to a third between runs; at about a third of it the
#: queue stays short.
LOAD = 0.35
#: Share of ``--seconds`` spent in the closed loops.
CLOSED_SHARE = 0.4
#: Closed and open loop pairs per run.
ROUNDS = 3
#: Open-loop requests per second of ``--seconds``: the loop sends a fixed
#: number of requests, whatever rate the capacity sets.
OPEN_PER_S = 16
#: Closed-loop bodies made ahead, per second of closed loop; far above
#: any capacity seen, so the loop ends on time, not on running out.
CLOSED_BODIES_PER_S = 200
SETUP_STARTS = 5
WARMUP_REQUESTS = 10
#: Latency charged to a failed request: the client's timeout.
MISS_S = startup.START_TIMEOUT


def _post(client, body):
    from repro.service.client import ClientError

    try:
        return client.solve(body["instance"])
    except (ClientError, OSError, ValueError):
        return None


def _warm(server: startup.Server, seed: int) -> None:
    client = server.client()
    client.wait_healthy(timeout=startup.START_TIMEOUT)
    for body in inputs.service_bodies(seed, inputs.WARMUP, WARMUP_REQUESTS):
        _post(client, body)


def closed_loop(url: str, bodies: list[dict], seconds: float):
    """:data:`CONNECTIONS` callers, each sending as soon as it has a reply.

    Returns the responses by body index (``None`` for a failure) and the
    completed requests per second.
    """
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    state = {"next": 0}
    responses: dict[int, dict | None] = {}
    t_start = perf_counter()
    stop_at = t_start + seconds

    def caller() -> float:
        client = ServiceClient(url, timeout=MISS_S)
        last = t_start
        while True:
            with lock:
                i = state["next"]
                if perf_counter() >= stop_at or i >= len(bodies):
                    return last
                state["next"] = i + 1
            responses[i] = _post(client, bodies[i])
            last = perf_counter()

    with ThreadPoolExecutor(CONNECTIONS) as pool:
        ends = [f.result() for f in [pool.submit(caller) for _ in range(CONNECTIONS)]]
    ok = sum(r is not None for r in responses.values())
    return responses, ok / (max(ends) - t_start)


def open_loop(url: str, bodies: list[dict], rate: float):
    """Send body ``i`` at ``start + i/rate`` over at most two connections.

    Returns the responses, due times, latencies from due time and send
    lags (s).  Times are on the ``monotonic`` clock, which the sampler
    process stamps its round trips with.
    """
    from repro.service.client import ServiceClient

    n = len(bodies)
    lock = threading.Lock()
    state = {"next": 0}
    responses: list[dict | None] = [None] * n
    sent = [0.0] * n
    done: list[float | None] = [None] * n
    start = monotonic() + 0.05
    due = [start + i / rate for i in range(n)]

    def sender() -> None:
        client = ServiceClient(url, timeout=MISS_S)
        while True:
            with lock:
                i = state["next"]
                if i >= n:
                    return
                state["next"] = i + 1
            while (now := monotonic()) < due[i]:
                sleep(due[i] - now)
            sent[i] = monotonic()
            responses[i] = _post(client, bodies[i])
            if responses[i] is not None:
                done[i] = monotonic()

    with ThreadPoolExecutor(CONNECTIONS) as pool:
        for f in [pool.submit(sender) for _ in range(CONNECTIONS)]:
            f.result()
    latency, lag = open_loop_times(due, sent, done, MISS_S)
    return responses, due, latency, lag


def parts_of(instance):
    """The sub-instances the service solves for ``instance``."""
    from repro.instances.transforms import split_independent
    from repro.service.server import DEFAULT_SPLIT_JOBS

    return split_independent(instance) if instance.n >= DEFAULT_SPLIT_JOBS else [instance]


def solve_parts(parts) -> list:
    from repro.core.algorithm import solve_nested

    return [solve_nested(part) for part in parts]


def merged_assignment(results) -> dict[str, list[int]]:
    """The parts' schedules as one assignment, in the served JSON form."""
    return {
        str(jid): list(slots)
        for result in results
        for jid, slots in result.schedule.assignment.items()
    }


def reference(body: dict) -> dict[str, list[int]]:
    """What in-process ``solve_nested`` gives for a served body."""
    from repro.instances.io import instance_from_dict

    return merged_assignment(solve_parts(parts_of(instance_from_dict(body["instance"]))))


def check_served(body: dict, response: dict | None, expected: dict) -> list[str]:
    """A served answer must be valid, within 9/5, unrepaired, and the same
    schedule ``solve_nested`` gives in this process."""
    from repro.instances.io import instance_from_dict, schedule_from_dict

    if response is None:
        return ["request failed"]
    instance = instance_from_dict(body["instance"])
    problems = check_result(
        instance,
        schedule_from_dict(response["schedule"]),
        response["lp_value"],
        response["repairs"],
    )
    if response["schedule"]["assignment"] != expected:
        problems.append("served schedule differs from in-process solve_nested")
    return problems


def _check_all(pairs, outcome: Outcome, expected_by_body: dict) -> None:
    for body, response in pairs:
        key = id(body)
        if key not in expected_by_body:
            expected_by_body[key] = reference(body)
        outcome.record(
            check_served(body, response, expected_by_body[key]),
            body["instance"]["name"],
        )


def run(seed: int, seconds: float, trace: bool, root: Path) -> tuple[Outcome, dict]:
    open_bodies = inputs.service_bodies(seed, inputs.OPEN, round(OPEN_PER_S * seconds))
    closed_bodies = inputs.service_bodies(
        seed, inputs.CLOSED, round(CLOSED_BODIES_PER_S * CLOSED_SHARE * seconds)
    )
    if trace:
        return _traced(seed, closed_bodies, open_bodies, seconds, root)

    setup_body = {
        "instance": inputs.service_bodies(inputs.SETUP_SEED, inputs.WARMUP, 1)[0]["instance"]
    }
    servers: list[startup.Server] = []

    def start() -> float:
        elapsed, server = startup.time_server_start(root, setup_body)
        if servers:
            servers.pop().stop()
        servers.append(server)
        return elapsed

    try:
        setup_s = calibrate.calibrated_median(start, SETUP_STARTS)
        loops = _loops(servers[0], seed, seconds, closed_bodies, open_bodies, root)
        peak_rss = servers[0].peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    outcome = Outcome()
    expected: dict[int, dict] = {}
    _check_all(
        ((closed_bodies[i], r) for i, r in sorted(loops.closed.items())), outcome, expected
    )
    _check_all(zip(open_bodies, loops.served), outcome, expected)
    return outcome, {
        "setup_s": setup_s,
        "active_time_sum": sum(r["active_time"] for r in loops.served if r is not None),
        "ok_share": 1 - outcome.failed / outcome.attempted,
        "peak_rss_mb": peak_rss,
        "latency_ms_p50": median(loops.latency_ms),
        "latency_ms_p90": percentile(loops.latency_ms, 90),
        "instances_per_s": loops.capacity,
    }


class Loops:
    """Results of :data:`ROUNDS` closed and open loops on one server."""

    closed: dict[int, dict | None]  # by index into the closed-loop bodies
    served: list[dict | None]  # by open-loop body
    latency: list[float]  # seconds from due time, as measured, by body
    lag: list[float]  # seconds the sender ran late, by body
    capacities: list[float]  # per round, requests/s of the reference machine
    latency_ms: list[float]  # by body, ms of the reference machine

    @property
    def capacity(self) -> float:
        return median(self.capacities)


def _chunks(items: list, n: int) -> list[list]:
    """``items`` cut into ``n`` consecutive runs of near-equal length."""
    bounds = [round(k * len(items) / n) for k in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _loops(server, seed, seconds, closed_bodies, open_bodies, root) -> Loops:
    """:data:`ROUNDS` rounds, each a closed loop for capacity, then an open
    loop at :data:`LOAD` times it.

    The offered rate follows the capacity measured a moment before, so the
    server runs at the same utilisation however fast the machine is just
    then, and its queueing, which grows steeply with utilisation, does not
    swing with the machine's speed.  Each closed loop is scaled by the
    kernel times taken during it and the capacity is the median over the
    rounds, so one round caught in a slow spell moves it little; each
    open-loop request is scaled by the round trips taken around it
    (:func:`perfbench.calibrate.window_scales`).
    """
    loops = Loops()
    loops.closed, loops.served, loops.latency, loops.lag = {}, [], [], []
    _warm(server, seed)
    marks, raw_capacity, spans = [], [], []
    sampler = calibrate.Sampler(startup.child_env(root), root)
    try:
        offset = 0
        for closed, bodies in zip(
            _chunks(closed_bodies, ROUNDS), _chunks(open_bodies, ROUNDS)
        ):
            t_closed = monotonic()
            responses, capacity = closed_loop(
                server.url, closed, CLOSED_SHARE * seconds / ROUNDS
            )
            loops.closed.update((offset + i, r) for i, r in responses.items())
            offset += len(closed)
            marks.append((t_closed, monotonic()))
            raw_capacity.append(capacity)
            # A server that failed every request still gets its open loop.
            served, due, latency, lag = open_loop(
                server.url, bodies, max(LOAD * capacity, 1.0)
            )
            loops.served += served
            loops.latency += latency
            loops.lag += lag
            spans += [(d, d + t) for d, t in zip(due, latency)]
    finally:
        sampler.stop()
    loops.capacities = [
        capacity / calibrate.scale(sampler.between(t0, t1))
        for (t0, t1), capacity in zip(marks, raw_capacity)
    ]
    scales = calibrate.window_scales(sampler.samples, spans)
    loops.latency_ms = [t * 1000 * s for t, s in zip(loops.latency, scales)]
    print(
        f"measured: capacity {' '.join(f'{c:.2f}' for c in raw_capacity)}/s, "
        f"open-loop p50 {median(loops.latency) * 1000:.3f} ms "
        f"(median scale {median(scales):.4f})",
        file=sys.stderr,
    )
    return loops


def _alone(url: str, bodies: list[dict]) -> list[float]:
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=MISS_S)
    times = []
    for body in bodies:
        t0 = perf_counter()
        response = _post(client, body)
        times.append(perf_counter() - t0 if response is not None else MISS_S)
    return times


def _traced(seed, closed_bodies, bodies, seconds, root: Path) -> tuple[Outcome, dict]:
    from repro.instances.io import instance_from_dict
    from repro.service.server import SchedulingService
    from repro.solver import SolverService, set_service

    from perfbench.trace import traced_solve

    server = startup.Server(root)
    try:
        loops = _loops(server, seed, seconds, closed_bodies, bodies, root)
    finally:
        server.stop()
    served, latency, lag = loops.served, loops.latency, loops.lag
    server = startup.Server(root)
    try:
        _warm(server, seed)
        alone = _alone(server.url, bodies)
    finally:
        server.stop()

    # Three solver services, one per pass, so that each pass meets the
    # body sequence with the cache state the server had.
    service_pass, parts_pass, traced_pass = SolverService(), SolverService(), SolverService()
    scheduling = SchedulingService(workers=1)
    outcome = Outcome()
    layers = LayerSamples()
    service_s, parts_s, split = [], [], 0
    kernel_times: list[float] = []
    expected: dict[int, dict] = {}
    previous = set_service(service_pass)
    try:
        for body in bodies:
            kernel_times.append(calibrate.kernel())
            t0 = perf_counter()
            instance = instance_from_dict(body["instance"])
            layers.parse.append(perf_counter() - t0)

            set_service(service_pass)
            t0 = perf_counter()
            scheduling.solve(body)
            service_s.append(perf_counter() - t0)

            set_service(parts_pass)
            parts = parts_of(instance)
            split += len(parts) > 1
            t0 = perf_counter()
            results = solve_parts(parts)
            parts_s.append(perf_counter() - t0)
            expected.setdefault(id(body), merged_assignment(results))

            set_service(traced_pass)
            sample = Sample()
            for part in parts:
                solve = traced_solve(part)
                outcome.record(
                    check_result(part, solve.schedule, solve.lp_value, solve.repairs),
                    part.name,
                )
                sample.add(part, solve)
            layers.solves.append(sample)
    finally:
        set_service(previous)
        scheduling.shutdown()
    _check_all(zip(bodies, served), outcome, expected)

    scale = calibrate.scale(kernel_times)
    metrics = layers.metrics(len(bodies), scale)
    zero = SolverService().stats_snapshot()
    metrics.update(LayerSamples.solver_metrics(zero, traced_pass.stats_snapshot()))
    metrics["trace.overhead"] = median([s.seconds for s in layers.solves]) / median(parts_s)
    ms = 1000 * scale
    metrics["service.http_ms"] = median([(a - s) * ms for a, s in zip(alone, service_s)])
    metrics["service.dispatch_ms"] = median([(s - p) * ms for s, p in zip(service_s, parts_s)])
    metrics["service.split_share"] = split / len(bodies)
    metrics["service.wait_ms_p95"] = percentile([(t - a) * ms for t, a in zip(latency, alone)], 95)
    metrics["client.send_lag_ms_p95"] = percentile([t * ms for t in lag], 95)
    return outcome, metrics
