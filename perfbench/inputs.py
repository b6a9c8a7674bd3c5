"""Seeded inputs for every workload, made outside all timing.

Every input is a pure function of ``(workload seed, stream, index)``.
Timed inputs and warm-up inputs come from different streams, so their
instance seeds never meet, and every timed in-process solve gets an
input that no earlier solve in the run has seen.
"""

from __future__ import annotations

import random

import numpy as np

# Instance seeds: stream s, workload seed w, index i -> one int.  Indices
# stay below STRIDE and streams below N_STREAMS, so two different triples
# never give the same instance seed.
STRIDE = 100_000
N_STREAMS = 8
TIMED, WARMUP, CLOSED, OPEN = 0, 1, 2, 3

#: The warm-up input that set-up solves in every fresh interpreter; fixed
#: so that ``setup_s`` does not depend on the workload seed.
SETUP_SEED = -1


def instance_seed(seed: int, stream: int, index: int) -> int:
    if not 0 <= index < STRIDE or not 0 <= stream < N_STREAMS:
        raise ValueError(f"index {index} / stream {stream} out of range")
    if seed == SETUP_SEED:
        return STRIDE * stream + index
    if seed < 0:
        raise ValueError("workload seeds are non-negative")
    return (seed + 1) * STRIDE * N_STREAMS + STRIDE * stream + index


# -- in-process families --------------------------------------------------

#: Family sizes.  ``wide_star(160, 3)`` binarizes into a comb about 160
#: nodes deep, where canonicalize, push-down and rounding are about a
#: third of the solve; ``deep_chain(90, 2)`` has no node to binarize and
#: spends nearly all its time in the LP; the long horizon puts a few
#: windows over 8000 slots, so the slot-level pre-check dominates.
WIDE_GROUPS, WIDE_G = 160, 3
DEEP_DEPTH, DEEP_G = 90, 2
LONG_JOBS, LONG_G, LONG_HORIZON, LONG_WINDOWS, LONG_P_MAX = 100, 4, 8000, 10, 20
LONG_WINDOWS_SEED = 8000


def wide_tree(rng_seed: int, small: bool = False):
    from repro.instances.generators import wide_star

    return wide_star(20 if small else WIDE_GROUPS, WIDE_G, seed=rng_seed)


def deep_chain(rng_seed: int, small: bool = False):
    from repro.instances.generators import deep_chain as chain

    return chain(10 if small else DEEP_DEPTH, DEEP_G, seed=rng_seed)


def laminar_windows(
    rng: random.Random, horizon: int, count: int, max_children: int = 3
) -> list[tuple[int, int]]:
    """A laminar family of ``count`` windows inside ``[0, horizon)``.

    Recursive partition: a random window gets up to ``max_children``
    disjoint children, separated by random gaps, each strictly inside it.
    """
    windows = [(0, horizon)]
    frontier = [(0, horizon)]
    while frontier and len(windows) < count:
        start, end = frontier.pop(rng.randrange(len(frontier)))
        cursor = start
        for _ in range(rng.randint(1, max_children)):
            if end - cursor < 2 or len(windows) >= count:
                break
            lo = cursor + rng.randint(0, (end - cursor) // 4)
            hi = rng.randint(lo + 1, end)
            if (lo, hi) == (start, end):
                hi -= 1
            if hi <= lo:
                break
            windows.append((lo, hi))
            frontier.append((lo, hi))
            cursor = hi
    return windows


def laminar_instance(
    rng_seed: int,
    n_jobs: int,
    g: int,
    horizon: int,
    n_windows: int,
    p_max: int,
    name: str,
    windows_seed: int | None = None,
):
    """A random laminar instance, feasible by construction.

    Each job is placed, as it is made, in the least-loaded slots of its
    window under the capacity ``g``, and its processing time is what
    fits.  That placement schedules the whole instance, so no flow test
    is needed to keep it feasible (``random_laminar`` reruns one after
    every dropped job, which costs seconds on a long horizon).  With
    ``windows_seed`` the windows come from that seed instead, so only the
    jobs differ between instances.
    """
    from repro.instances.jobs import Instance, Job

    rng = random.Random(rng_seed)
    windows = laminar_windows(
        rng if windows_seed is None else random.Random(windows_seed), horizon, n_windows
    )
    load = np.zeros(horizon, dtype=np.int64)
    jobs = []
    for k in range(n_jobs):
        # Jobs take the windows in turn, so instances of one family differ
        # little in size; the first job spans the whole horizon, so the
        # instance is one component and is never split.
        start, end = windows[k % len(windows)]
        want = rng.randint(1, min(p_max, end - start))
        seg = load[start:end]
        free = np.flatnonzero(seg < g)
        free = free[np.argsort(seg[free], kind="stable")][:want]
        if free.size == 0:
            continue
        seg[free] += 1
        jobs.append(
            Job(id=len(jobs), release=start, deadline=end, processing=int(free.size))
        )
    return Instance(jobs=tuple(jobs), g=g, name=f"{name}(seed={rng_seed})")


def long_horizon(rng_seed: int, small: bool = False):
    """One fixed family of windows; the jobs' lengths vary with the seed,
    so the pre-check's network has nearly the same size every time."""
    n_jobs, horizon = (20, 400) if small else (LONG_JOBS, LONG_HORIZON)
    return laminar_instance(
        rng_seed,
        n_jobs,
        LONG_G,
        horizon,
        LONG_WINDOWS,
        LONG_P_MAX,
        "long_horizon",
        windows_seed=LONG_WINDOWS_SEED,
    )


FAMILIES = {
    "wide_tree": wide_tree,
    "deep_chain": deep_chain,
    "long_horizon": long_horizon,
}


def precheck_arcs(instance) -> int:
    """Arcs of the all-slots flow network: source, window and sink arcs."""
    span = instance.horizon.length
    return instance.n + sum(j.deadline - j.release for j in instance.jobs) + span


# -- service mix ------------------------------------------------------------

#: The request mix, by position in each block of ten requests: a small
#: laminar body, a body of at least 64 jobs in several components (the
#: service splits it and solves the parts one by one), or an exact repeat
#: of the small body :data:`REPEAT_DISTANCE` requests earlier (its LP is
#: answered by the solve cache).  With a fifth of the requests multi-part,
#: ``latency_ms_p90`` falls in the middle of their latencies rather than on
#: the edge between them and the small bodies, where it would swing.
MIX_BLOCK = ("small", "small", "multi", "small", "repeat",
             "small", "small", "multi", "small", "repeat")
REPEAT_DISTANCE = 3
MIX_SHARES = {k: MIX_BLOCK.count(k) / len(MIX_BLOCK) for k in set(MIX_BLOCK)}
SMALL_JOBS, SMALL_G, SMALL_HORIZON, SMALL_WINDOWS, SMALL_P_MAX = 12, 3, 40, 6, 8
MULTI_PARTS, MULTI_GAP = 6, 10
#: The service's default ``split_jobs``: bodies this large are split.
MULTI_MIN_JOBS = 64


def small_body(rng_seed: int):
    return laminar_instance(
        rng_seed, SMALL_JOBS, SMALL_G, SMALL_HORIZON, SMALL_WINDOWS, SMALL_P_MAX, "small"
    )


def multi_body(rng_seed: int):
    """Small laminar instances side by side in time, at least 64 jobs."""
    from repro.instances.jobs import Instance, Job

    jobs = []
    offset = 0
    part = 0
    while part < MULTI_PARTS or len(jobs) < MULTI_MIN_JOBS:
        sub = small_body(rng_seed * 64 + part)
        for j in sub.jobs:
            jobs.append(
                Job(
                    id=len(jobs),
                    release=j.release + offset,
                    deadline=j.deadline + offset,
                    processing=j.processing,
                )
            )
        offset += SMALL_HORIZON + MULTI_GAP
        part += 1
    return Instance(jobs=tuple(jobs), g=SMALL_G, name=f"multi(seed={rng_seed})")


def service_bodies(seed: int, stream: int, count: int) -> list[dict]:
    """``count`` ``/solve`` bodies following :data:`MIX_BLOCK`."""
    from repro.instances.io import instance_to_dict

    bodies: list[dict] = []
    for i in range(count):
        kind = MIX_BLOCK[i % len(MIX_BLOCK)]
        if kind == "repeat":
            bodies.append(bodies[i - REPEAT_DISTANCE])
            continue
        make = small_body if kind == "small" else multi_body
        bodies.append({"instance": instance_to_dict(make(instance_seed(seed, stream, i)))})
    return bodies
