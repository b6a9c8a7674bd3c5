"""The paper's strengthened tree LP — LP (1) of Section 3.1.

Variables: ``x(i)`` = fractional open slots in node ``i``'s exclusive
region; ``y(i, j)`` = units of job ``j`` placed in node ``i`` (only for
``i ∈ Des(k(j))``).  Constraints (2)–(6) are the natural tree relaxation;
the *ceiling constraints* (7)–(8) force ``x(Des(i)) ≥ 2`` (resp. 3) when
no 1-slot (resp. 2-slot) schedule of the subtree exists — the key
strengthening that breaks the factor-2 barrier on nested instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opt_thresholds import OptThresholds, compute_thresholds
from repro.lp.backend import LinearProgram
from repro.tree.canonical import CanonicalInstance
from repro.util.numeric import snap_vector


@dataclass(frozen=True)
class NestedLPSolution:
    """Solution of LP (1) on a canonical instance.

    ``x`` is indexed by tree node; ``y`` is a dense ``(m, n_jobs)`` array
    indexed by (node, position of job in ``instance.jobs``).  Values are
    snapped to integers within tolerance.
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    thresholds: OptThresholds

    def x_subtree(self, forest, i: int) -> float:
        """``x(Des(i))``."""
        return float(sum(self.x[k] for k in forest.descendants(i)))


def _xname(i: int) -> str:
    return f"x[{i}]"


def _yname(i: int, jid: int) -> str:
    return f"y[{i},{jid}]"


def build_nested_lp(
    canonical: CanonicalInstance,
    *,
    ceiling: bool = True,
    thresholds: OptThresholds | None = None,
    vectorized: bool = True,
) -> tuple[LinearProgram, OptThresholds]:
    """Build LP (1) for a canonical instance.

    Parameters
    ----------
    ceiling:
        Include constraints (7)–(8).  ``False`` gives the natural tree
        relaxation (used by the E10 ablation).
    thresholds:
        Precomputed ``OPT_i`` thresholds (computed on demand otherwise).
    vectorized:
        Assemble the constraint families as bulk CSR blocks
        (:meth:`~repro.lp.backend.LinearProgram.add_constraint_block`)
        instead of one coefficient dict per row.  Both paths compile to
        the same model bit-for-bit (identical
        :func:`~repro.solver.cache.model_fingerprint`); ``False`` keeps
        the historical per-row reference build for cross-checks.
    """
    inst = canonical.instance
    forest = canonical.forest
    job_node = canonical.job_node
    jobs_by_id = {j.id: j for j in inst.jobs}
    if thresholds is None:
        thresholds = compute_thresholds(forest, job_node, jobs_by_id, inst.g)
    build = _build_vectorized if vectorized else _build_legacy
    return build(inst, forest, job_node, thresholds, ceiling), thresholds


def _build_legacy(inst, forest, job_node, thresholds, ceiling) -> LinearProgram:
    """Historical per-row build — the reference the vectorized path must match."""
    lp = LinearProgram(name=f"nested_lp({inst.name})")
    for i in range(forest.m):
        lp.add_var(_xname(i), objective=1.0)
    admissible: dict[int, list[int]] = {}  # job id -> nodes it may use
    for job in inst.jobs:
        nodes = forest.descendants(job_node[job.id])
        admissible[job.id] = nodes
        for i in nodes:
            lp.add_var(_yname(i, job.id))

    # (2) every job fully scheduled.
    for job in inst.jobs:
        lp.add_constraint(
            {_yname(i, job.id): 1.0 for i in admissible[job.id]},
            ">=",
            job.processing,
            label=f"volume[{job.id}]",
        )
    # (3) node capacity g·x(i); (4) length cap; (5) per-job cap x(i).
    per_node_jobs: dict[int, list[int]] = {i: [] for i in range(forest.m)}
    for jid, nodes in admissible.items():
        for i in nodes:
            per_node_jobs[i].append(jid)
    for i in range(forest.m):
        coeffs = {_yname(i, jid): 1.0 for jid in per_node_jobs[i]}
        coeffs[_xname(i)] = -float(inst.g)
        lp.add_constraint(coeffs, "<=", 0.0, label=f"capacity[{i}]")
        lp.add_constraint(
            {_xname(i): 1.0}, "<=", float(forest.length(i)), label=f"length[{i}]"
        )
        for jid in per_node_jobs[i]:
            lp.add_constraint(
                {_yname(i, jid): 1.0, _xname(i): -1.0},
                "<=",
                0.0,
                label=f"spread[{i},{jid}]",
            )
    _add_ceiling_rows(lp, forest, thresholds, ceiling)
    return lp


def _add_ceiling_rows(lp, forest, thresholds, ceiling) -> None:
    # (7)-(8) ceiling constraints from OPT_i thresholds.  Few rows (at
    # most one per node) over descendant sets — not worth vectorizing.
    if not ceiling:
        return
    for i in range(forest.m):
        omega = thresholds.value(i)
        if omega >= 2:
            lp.add_constraint(
                {_xname(k): 1.0 for k in forest.descendants(i)},
                ">=",
                float(omega),
                label=f"ceiling[{i}]>={omega}",
            )


def _build_vectorized(
    inst, forest, job_node, thresholds, ceiling
) -> LinearProgram:
    """Bulk-array build of LP (1).

    Emits the same variables, rows and nonzeros in the same order as
    :func:`_build_legacy` — the x columns come first, then the y columns
    job-major; the volume family is one ``>=`` block; the interleaved
    capacity/length/spread family is one ``<=`` block whose per-node
    segment is laid out ``[capacity (nj y's + x), length, spread×nj]``.
    """
    m = forest.m
    n_jobs = inst.n
    g = float(inst.g)
    lp = LinearProgram(name=f"nested_lp({inst.name})")
    lp.add_vars([_xname(i) for i in range(m)], objective=1.0)
    admissible = [forest.descendants(job_node[job.id]) for job in inst.jobs]
    lp.add_vars(
        [
            _yname(i, job.id)
            for job, nodes in zip(inst.jobs, admissible)
            for i in nodes
        ]
    )
    counts = np.fromiter(
        (len(nodes) for nodes in admissible), dtype=np.int64, count=n_jobs
    )
    total_y = int(counts.sum())
    y_cols = m + np.arange(total_y, dtype=np.int64)
    node_of = np.fromiter(
        (i for nodes in admissible for i in nodes),
        dtype=np.int64,
        count=total_y,
    )
    jid_of = np.repeat(
        np.fromiter((job.id for job in inst.jobs), dtype=np.int64, count=n_jobs),
        counts,
    )

    # (2) volume block: one >= row per job over its y columns (which are
    # contiguous, in admissible-node order — exactly the legacy dicts).
    if n_jobs:
        lp.add_constraint_block(
            np.ones(total_y),
            y_cols,
            np.concatenate(([0], np.cumsum(counts))),
            ">=",
            np.fromiter(
                (job.processing for job in inst.jobs),
                dtype=float,
                count=n_jobs,
            ),
            [f"volume[{job.id}]" for job in inst.jobs],
        )

    # (3)-(5) one <= block, node-major.  Stable sort by node keeps the
    # job-scan order within each node (the legacy per_node_jobs order).
    if m:
        order = np.argsort(node_of, kind="stable")
        s_node = node_of[order]
        s_ycol = y_cols[order]
        s_jid = jid_of[order]
        nj = np.bincount(node_of, minlength=m)
        group_start = np.cumsum(nj) - nj
        within = np.arange(total_y, dtype=np.int64) - group_start[s_node]
        xcols = np.arange(m, dtype=np.int64)
        lengths = forest.lengths.astype(float)

        seg_nnz = 3 * nj + 2  # capacity nj+1, length 1, spread 2·nj
        seg_start = np.cumsum(seg_nnz) - seg_nnz
        nnz = int(seg_nnz.sum())
        data = np.empty(nnz, dtype=float)
        indices = np.empty(nnz, dtype=np.int64)
        cap_y = seg_start[s_node] + within
        data[cap_y] = 1.0
        indices[cap_y] = s_ycol
        cap_x = seg_start + nj
        data[cap_x] = -g
        indices[cap_x] = xcols
        data[cap_x + 1] = 1.0  # length row
        indices[cap_x + 1] = xcols
        sp_y = seg_start[s_node] + nj[s_node] + 2 + 2 * within
        data[sp_y] = 1.0
        indices[sp_y] = s_ycol
        data[sp_y + 1] = -1.0
        indices[sp_y + 1] = s_node

        rows_per_node = nj + 2
        row_start = np.cumsum(rows_per_node) - rows_per_node
        total_rows = int(rows_per_node.sum())
        row_lens = np.full(total_rows, 2, dtype=np.int64)
        row_lens[row_start] = nj + 1
        row_lens[row_start + 1] = 1
        rhs = np.zeros(total_rows)
        rhs[row_start + 1] = lengths
        labels: list[str] = []
        nj_list = nj.tolist()
        jid_list = s_jid.tolist()
        ptr = 0
        for i in range(m):
            labels.append(f"capacity[{i}]")
            labels.append(f"length[{i}]")
            for jid in jid_list[ptr : ptr + nj_list[i]]:
                labels.append(f"spread[{i},{jid}]")
            ptr += nj_list[i]
        lp.add_constraint_block(
            data,
            indices,
            np.concatenate(([0], np.cumsum(row_lens))),
            "<=",
            rhs,
            labels,
        )

    # (7)-(8) as one >= block over descendant x columns, same row and
    # column order as the legacy dict loop: row i's columns are the
    # preorder slice [tin[i], tout[i]).
    if ceiling:
        omegas = [thresholds.value(i) for i in range(m)]
        sel = [i for i in range(m) if omegas[i] >= 2]
        if sel:
            lo = forest.tin_array[sel]
            lens = forest.tout_array[sel] - lo
            offsets = np.cumsum(lens) - lens
            idx = forest.pre[
                np.arange(int(lens.sum())) + np.repeat(lo - offsets, lens)
            ]
            lp.add_constraint_block(
                np.ones(idx.size),
                idx,
                np.concatenate(([0], np.cumsum(lens))),
                ">=",
                np.array([float(omegas[i]) for i in sel]),
                [f"ceiling[{i}]>={omegas[i]}" for i in sel],
            )
    return lp


def solve_nested_lp(
    canonical: CanonicalInstance,
    *,
    ceiling: bool = True,
    backend: str | None = None,
    thresholds: OptThresholds | None = None,
) -> NestedLPSolution:
    """Solve LP (1); returns snapped ``x`` and ``y`` arrays.

    ``backend=None`` uses the solver service's fallback chain (cached);
    pass ``"highs"``/``"simplex"`` to pin a backend.
    """
    lp, thresholds = build_nested_lp(
        canonical, ceiling=ceiling, thresholds=thresholds
    )
    sol = lp.solve(backend=backend)
    forest = canonical.forest
    inst = canonical.instance
    x = snap_vector(sol.get(_xname(i)) for i in range(forest.m))
    y = np.zeros((forest.m, inst.n))
    for pos, job in enumerate(inst.jobs):
        for i in forest.descendants(canonical.job_node[job.id]):
            y[i, pos] = sol.get(_yname(i, job.id))
    y = np.where(np.abs(y) < 1e-9, 0.0, y)
    return NestedLPSolution(
        value=float(sol.value), x=x, y=y, thresholds=thresholds
    )
