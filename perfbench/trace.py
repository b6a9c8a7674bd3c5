"""Spans around the public calls of the 9/5 pipeline, recorded from outside.

:func:`traced_solve` replays :func:`repro.core.algorithm.solve_nested`
call by call and wraps each stage in a span.  Inside
:func:`repro.lp.nested_lp.solve_nested_lp` two calls are wrapped while a
:class:`Tracer` is active: ``build_nested_lp`` and
``SolverService.solve``.  HiGHS time is the backend-time delta of the
solver's own stats, recorded as a child span of the solver span.  A
stage's self time is its span minus its child spans, so ``lp.decode``
is the rest of ``solve_nested_lp`` and ``solver.overhead`` is the solver
service's wall time minus the backend's.

Nothing here edits the program: the two wrappers are installed on entry
to :meth:`Tracer.patched` and removed on exit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

#: Stage names as reported (``<module>.<stage>``), in pipeline order, and
#: the span each one is the self time of.
STAGES: dict[str, str] = {
    "flow.precheck": "flow.precheck",
    "tree.canonicalize": "tree.canonicalize",
    "lp.build": "lp.build",
    "solver.highs": "solver.highs",
    "solver.overhead": "solver.solve",
    "lp.decode": "lp.solve_nested_lp",
    "core.push_down": "core.push_down",
    "core.rounding": "core.rounding",
    "flow.node_flow": "flow.node_flow",
    "flow.slot_assign": "flow.slot_assign",
    "core.validate": "core.validate",
}

ROOT = "solve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for the root


@dataclass
class Tracer:
    """Spans of one traced solve, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    lp: object = None  # the last LinearProgram built while patched
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def add_child(self, name: str, seconds: float) -> None:
        """Record a span measured by someone else inside the open span."""
        now = perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, now - seconds, now, parent))

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap ``build_nested_lp`` and ``SolverService.solve`` in spans."""
        import repro.lp.nested_lp as nested_lp
        from repro.solver.service import SolverService

        build = nested_lp.build_nested_lp
        solve = SolverService.solve
        tracer = self

        def traced_build(*args, **kwargs):
            with tracer.span("lp.build"):
                lp, thresholds = build(*args, **kwargs)
            tracer.lp = lp
            return lp, thresholds

        def traced_solve(service, lp, backend=None):
            before = _backend_time(service)
            with tracer.span("solver.solve"):
                try:
                    return solve(service, lp, backend=backend)
                finally:
                    tracer.add_child(
                        "solver.highs", _backend_time(service) - before
                    )

        nested_lp.build_nested_lp = traced_build
        SolverService.solve = traced_solve
        try:
            yield self
        finally:
            nested_lp.build_nested_lp = build
            SolverService.solve = solve


def _backend_time(service) -> float:
    backends = service.stats_snapshot()["backends"]
    return backends.get("highs", {}).get("time", 0.0)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name span duration minus the durations of its direct children."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent].name
            out[parent] -= span.end - span.start
    return out


def stage_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds of every stage in :data:`STAGES` (0.0 when absent)."""
    own = self_times(spans)
    return {stage: own.get(span, 0.0) for stage, span in STAGES.items()}


@dataclass
class TracedSolve:
    schedule: object  # repro.core.schedule.Schedule
    lp_value: float
    repairs: int
    seconds: float  # wall time of the whole replay
    stages: dict[str, float]  # self seconds per stage
    counts: dict[str, int]  # sizes of the tree and the LP


def _counts(canonical, lp) -> dict[str, int]:
    parts = lp.compile()
    return {
        "tree.nodes": canonical.forest.m,
        "tree.depth_max": max(canonical.forest.depth, default=0),
        "lp.rows": lp.num_constraints,
        "lp.cols": lp.num_vars,
        "lp.nnz": sum(
            parts[key].nnz for key in ("A_ub", "A_eq") if parts[key] is not None
        ),
    }


def traced_solve(instance) -> TracedSolve:
    """Run the stages of ``solve_nested`` one call at a time, each in a span.

    When the node flow rejects the rounded counts, ``solve_nested``
    repairs them; the replay then records one repair and takes the
    schedule from ``solve_nested`` itself.
    """
    from repro.core.algorithm import solve_nested
    from repro.core.rounding import round_solution
    from repro.core.schedule import Schedule
    from repro.core.transform import push_down
    from repro.flow.assignment import schedule_from_node_counts
    from repro.flow.feasibility import all_slots_feasible, node_assignment
    from repro.lp.nested_lp import solve_nested_lp
    from repro.tree.canonical import canonicalize
    from repro.util.errors import InfeasibleInstanceError

    tracer = Tracer()
    repairs = 0
    with tracer.patched(), tracer.span(ROOT):
        instance.require_laminar()
        with tracer.span("flow.precheck"):
            feasible = all_slots_feasible(instance)
        if not feasible:
            raise InfeasibleInstanceError(f"{instance.name!r} is infeasible")
        with tracer.span("tree.canonicalize"):
            canonical = canonicalize(instance)
        with tracer.span("lp.solve_nested_lp"):
            lp_sol = solve_nested_lp(canonical)
        forest = canonical.forest
        with tracer.span("core.push_down"):
            transformed = push_down(forest, lp_sol.x, lp_sol.y)
        with tracer.span("core.rounding"):
            rounding = round_solution(forest, transformed.x, transformed.topmost)
        x_tilde = rounding.x_tilde.astype(int)
        with tracer.span("flow.node_flow"):
            y_int = node_assignment(
                canonical.instance, forest, canonical.job_node, x_tilde
            )
        if y_int is None:
            repairs = 1
            schedule = solve_nested(instance).schedule
        else:
            with tracer.span("flow.slot_assign"):
                canon_schedule = schedule_from_node_counts(
                    canonical.instance, forest, canonical.job_node, x_tilde, y_int
                )
            with tracer.span("core.validate"):
                schedule = Schedule.from_assignment(
                    instance, canon_schedule.assignment
                )
                schedule.require_valid()
    root = tracer.spans[0]
    return TracedSolve(
        schedule=schedule,
        lp_value=lp_sol.value,
        repairs=repairs,
        seconds=root.end - root.start,
        stages=stage_times(tracer.spans),
        counts=_counts(canonical, tracer.lp),
    )
