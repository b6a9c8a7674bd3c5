"""Per-layer metrics from traced solves."""

from __future__ import annotations

from statistics import median
from time import perf_counter

from perfbench import inputs
from perfbench.trace import STAGES

COUNTS = ("tree.nodes", "tree.depth_max", "lp.rows", "lp.cols", "lp.nnz", "flow.precheck_arcs")


class Sample:
    """One traced unit of work: a solve, or the parts of one request.

    Times and counts add up over the parts; the depth is the deepest part's.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.stages = dict.fromkeys(STAGES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.repairs = 0

    def add(self, instance, solve) -> None:
        self.seconds += solve.seconds
        for stage, t in solve.stages.items():
            self.stages[stage] += t
        for name, value in solve.counts.items():
            if name == "tree.depth_max":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self.counts["flow.precheck_arcs"] += inputs.precheck_arcs(instance)
        self.repairs += solve.repairs


class LayerSamples:
    """Traced samples of one run and the parse time of each input."""

    def __init__(self) -> None:
        self.solves: list[Sample] = []
        self.parse: list[float] = []

    def add_solve(self, instance, solve) -> None:
        """One traced in-process solve, and the parse time of its input."""
        sample = Sample()
        sample.add(instance, solve)
        self.solves.append(sample)
        self.parse.append(time_parse(instance))

    def metrics(self, n_counts: int, scale: float) -> dict[str, float]:
        """Median stage self times and parse time (ms, times ``scale``),
        median counts over the first ``n_counts`` samples, repairs and
        stage coverage."""
        out: dict[str, float] = {}
        for stage in STAGES:
            out[f"{stage}_ms"] = median([s.stages[stage] * 1000 * scale for s in self.solves])
        for name in COUNTS:
            out[name] = median([s.counts[name] for s in self.solves[:n_counts]])
        out["core.repairs"] = sum(s.repairs for s in self.solves)
        out["trace.stage_coverage"] = sum(
            sum(s.stages.values()) for s in self.solves
        ) / sum(s.seconds for s in self.solves)
        out["instances.parse_ms"] = median([t * 1000 * scale for t in self.parse])
        return out

    @staticmethod
    def solver_metrics(before: dict, after: dict) -> dict[str, float]:
        """Cache-hit share and fallbacks from two ``solver_stats()`` snapshots."""
        solves = after["solves"] - before["solves"]
        hits = after["cache_hits"] - before["cache_hits"]
        return {
            "solver.cache_hit_share": hits / solves if solves else 0.0,
            "solver.fallbacks": after["fallbacks"] - before["fallbacks"],
        }


def time_parse(instance) -> float:
    """Seconds ``instance_from_dict`` takes on the instance's JSON form."""
    from repro.instances.io import instance_from_dict, instance_to_dict

    doc = instance_to_dict(instance)
    t0 = perf_counter()
    instance_from_dict(doc)
    return perf_counter() - t0
