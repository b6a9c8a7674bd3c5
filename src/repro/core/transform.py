"""Lemma 3.1: push fractional open slots down the tree.

Given a feasible LP solution ``(x, y)``, repeatedly move open mass from a
node to an unsaturated strict descendant (moving each job's assignment
proportionally) until the invariant holds:

    if any strict descendant of ``i`` has ``x < L``, then ``x(i) = 0``.

Afterwards the *topmost positive* nodes ``I`` satisfy Claim 1: pairwise
incomparable, all leaves below them, everything strictly below fully open,
everything strictly above zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tree.node import WindowForest
from repro.util.numeric import EPS, snap_vector


@dataclass
class TransformedLP:
    """LP solution after the Lemma 3.1 transformation.

    Attributes
    ----------
    x, y:
        The transformed solution (same objective value as the input).
    topmost:
        The set ``I``: topmost nodes with ``x > 0``.
    moves:
        Number of push-down operations performed.
    """

    x: np.ndarray
    y: np.ndarray
    topmost: list[int]
    moves: int


def push_down(
    forest: WindowForest, x: np.ndarray, y: np.ndarray
) -> TransformedLP:
    """Apply the Lemma 3.1 transformation (in a fresh copy).

    One preorder pass suffices: when node ``i1`` is processed, its mass is
    pushed into unsaturated strict descendants until ``x(i1) = 0`` or all
    are saturated; mass only ever moves downward, and a node that keeps
    mass has a fully saturated subtree, so no later step re-violates it.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    lengths = forest.lengths.astype(float)
    neg_depth = -forest.depth_array[forest.pre]
    moves = 0
    for i1 in forest.preorder:
        lo, hi = forest.tin[i1] + 1, forest.tout[i1]
        if x[i1] <= EPS or lo == hi:
            continue
        # Deepest-first so mass lands as low as possible; the stable sort
        # keeps preorder among equal depths.  Only i1 and the node being
        # filled change, so each slack can be read up front.
        below = forest.pre[lo:hi][np.argsort(neg_depth[lo:hi], kind="stable")]
        slack = lengths[below] - x[below]
        keep = slack > EPS
        for i2, room in zip(below[keep].tolist(), slack[keep].tolist()):
            if x[i1] <= EPS:
                break
            theta = min(room, x[i1])
            frac = theta / x[i1]
            moved = frac * y[i1, :]
            y[i1, :] -= moved
            y[i2, :] += moved
            x[i1] -= theta
            x[i2] += theta
            moves += 1
    x = snap_vector(x)
    y[np.abs(y) < EPS] = 0.0
    positive = x > EPS
    topmost = np.flatnonzero(positive & ~forest.below_marked(positive)).tolist()
    return TransformedLP(x=x, y=y, topmost=topmost, moves=moves)


def verify_pushdown_invariant(forest: WindowForest, x: np.ndarray) -> bool:
    """Check the Lemma 3.1 property on a solution.

    No node with ``x > 0`` may have a strict descendant with ``x < L``.
    """
    x = np.asarray(x, dtype=float)
    short = x < forest.lengths - EPS
    return not (short & forest.below_marked(x > EPS)).any()


def verify_claim1(forest: WindowForest, x: np.ndarray, topmost: list[int]) -> list[str]:
    """Check properties (1a)–(1e) of Claim 1; returns violations."""
    problems: list[str] = []
    tops = set(topmost)
    for i in topmost:
        for a in forest.strict_ancestors(i):
            if a in tops:
                problems.append(f"(1a) {a} is a strict ancestor of {i} in I")
            if x[a] > EPS:
                problems.append(f"(1e) strict ancestor {a} of {i} has x > 0")
        if x[i] <= EPS:
            problems.append(f"(1c) node {i} in I has x = 0")
        for d in forest.strict_descendants(i):
            if abs(x[d] - forest.length(d)) > EPS:
                problems.append(f"(1d) descendant {d} of {i} not fully open")
    covered = set()
    for i in topmost:
        covered.update(forest.descendants(i))
    for leaf in forest.leaves():
        if leaf not in covered:
            problems.append(f"(1b) leaf {leaf} outside Des(I)")
    return problems
