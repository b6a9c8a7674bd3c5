"""Algorithm 1: rounding the transformed LP solution.

Start from ``x̃(i) = ⌊x(i)⌋`` on the topmost-positive set ``I`` (all other
nodes are already integral after the transformation: fully open below
``I``, zero above).  Then walk ``Anc(I)`` bottom-to-top and, while the
subtree budget ``(9/5)·x(Des(i))`` affords it, round floored nodes in the
subtree up to ``⌈x⌉``.  Lemma 3.3 gives ``x̃([m]) ≤ (9/5)·x([m])``;
Section 4 proves the result is feasible on canonical trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from repro.tree.node import WindowForest
from repro.util.errors import IntegralityError
from repro.util.numeric import EPS, SUM_EPS

#: The approximation factor of the paper.
APPROX_FACTOR = 9.0 / 5.0


def _integral_off_I(value: float, node: int) -> float:
    """Initial value off ``I``: the value itself, asserted integral.

    Nodes outside ``I`` are exactly integral under the Lemma 3.1
    invariant (fully open below ``I``, zero above), so the only
    legitimate deviation is float noise within ``EPS``.  An explicit
    nearest-int (``⌊v + 1/2⌋``, *not* Python's half-to-even ``round``)
    plus a loud integrality check replaces the historic ``round(v)``:
    drift beyond ``EPS`` raises instead of silently changing ``x̃`` off
    ``I``.
    """
    nearest = floor(value + 0.5)
    if abs(value - nearest) > EPS:
        raise IntegralityError(
            f"node {node} off the topmost set carries non-integral "
            f"x = {value!r} (|x - {nearest}| > EPS): the Lemma 3.1 "
            "invariant is broken upstream of rounding",
            node=node,
            value=float(value),
        )
    return float(nearest)


@dataclass
class RoundingResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    x_tilde:
        Integral open-slot counts per node.
    topmost:
        The set ``I`` the rounding operated on.
    rounded_up:
        Nodes of ``I`` whose value was raised to the ceiling.
    budget_ok:
        Whether ``Σ x̃ ≤ (9/5)·Σ x`` (Lemma 3.3; always true by
        construction, re-checked defensively).
    """

    x_tilde: np.ndarray
    topmost: list[int]
    rounded_up: list[int]
    budget_ok: bool

    @property
    def total(self) -> int:
        return int(self.x_tilde.sum())


def round_solution(
    forest: WindowForest, x: np.ndarray, topmost: list[int]
) -> RoundingResult:
    """Run Algorithm 1 on a transformed solution.

    ``x`` must satisfy the Lemma 3.1 invariant; ``topmost`` is its set
    ``I``.  Fractional values occur only on ``I`` (integral elsewhere).

    Subtree sums are taken over contiguous preorder slices (the same
    elements in the same order as ``x[Des(i)]``), and the next round-up
    candidate of a subtree comes from a skip pointer over preorder
    positions: a node stops being a candidate once it is rounded up.
    """
    x = np.asarray(x, dtype=float)
    m = forest.m
    in_top = np.zeros(m, dtype=bool)
    in_top[list(topmost)] = True
    # On I: ⌊x⌋ (EPS-guarded).  Off I: x itself, asserted integral; exact
    # integers pass through as is (``+ 0.0`` turns -0.0 into 0.0, as
    # ⌊v + 1/2⌋ does), the rest go through the checked rounding.
    x_tilde = np.where(in_top, np.floor(x + EPS), x + 0.0)
    for i in np.flatnonzero(~in_top & (x != np.floor(x))).tolist():
        x_tilde[i] = _integral_off_I(x[i], i)

    pre = forest.preorder
    xp = x[forest.pre]
    xtp = x_tilde[forest.pre]
    # skip[p]: a preorder position at or before the next candidate
    # (a floored I-node) at or after p; m marks "none left".
    candidate = (in_top & (x_tilde < x - EPS))[forest.pre]
    skip = [p if candidate[p] else p + 1 for p in range(m)] + [m]

    def next_candidate(p: int) -> int:
        q = p
        while skip[q] != q:
            q = skip[q]
        while skip[p] != q:
            skip[p], p = q, skip[p]
        return q

    rounded_up: list[int] = []
    # Bottom-to-top = postorder restricted to Anc(I): every node with an
    # I-node in its subtree (I-nodes included).
    in_anc = forest.above_marked(in_top)
    for i in forest.postorder:
        if not in_anc[i]:
            continue
        lo, hi = forest.tin[i], forest.tout[i]
        p = next_candidate(lo)
        if p >= hi:
            continue  # nothing left to round up, whatever the budget
        x_sum = float(xp[lo:hi].sum())
        while APPROX_FACTOR * x_sum >= float(xtp[lo:hi].sum()) + 1.0 - SUM_EPS:
            k = pre[p]
            x_tilde[k] = xtp[p] = ceil(x[k] - EPS)
            skip[p] = p + 1
            rounded_up.append(k)
            p = next_candidate(lo)
            if p >= hi:
                break

    budget_ok = float(x_tilde.sum()) <= APPROX_FACTOR * float(x.sum()) + SUM_EPS
    return RoundingResult(
        x_tilde=x_tilde,
        topmost=list(topmost),
        rounded_up=rounded_up,
        budget_ok=budget_ok,
    )


def classify_topmost(
    forest: WindowForest, x: np.ndarray, x_tilde: np.ndarray, topmost: list[int]
) -> dict[int, str]:
    """Type each ``I``-node per Section 4.2: ``B``, ``C1`` or ``C2``.

    * type-B:   ``x(Des(i)) ∈ {1} ∪ [4/3, ∞)``
    * type-C:   ``x(Des(i)) ∈ (1, 4/3)``; split by the rounded subtree sum
      ``x̃(Des(i))``: C1 has ``x̃(Des(i)) = 1``, C2 has ``x̃(Des(i)) = 2``
      (Section 4.2 — these are the only two values Algorithm 1 can
      produce on a type-C subtree).  Any other value means the rounding
      ran on corrupted data, so it raises :class:`IntegralityError`
      instead of guessing a side.
    """
    types: dict[int, str] = {}
    xp = np.asarray(x, dtype=float)[forest.pre]
    xtp = np.asarray(x_tilde, dtype=float)[forest.pre]
    for i in topmost:
        des = slice(forest.tin[i], forest.tout[i])
        xs = float(xp[des].sum())
        if abs(xs - 1.0) <= SUM_EPS or xs >= 4.0 / 3.0 - SUM_EPS:
            types[i] = "B"
        else:
            xt = float(xtp[des].sum())
            if abs(xt - 1.0) <= SUM_EPS:
                types[i] = "C1"
            elif abs(xt - 2.0) <= SUM_EPS:
                types[i] = "C2"
            else:
                raise IntegralityError(
                    f"type-C node {i}: x̃(Des(i)) = {xt!r} but Section 4.2 "
                    f"allows only 1 (C1) or 2 (C2) when x(Des(i)) = {xs!r} "
                    "∈ (1, 4/3) — the rounded solution is off-spec",
                    node=i,
                    value=xt,
                )
    return types
