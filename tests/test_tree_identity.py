"""The array-based tree code against the per-node loops it replaced.

``push_down`` and ``round_solution`` walk the canonical tree through
preorder slices, prefix sums and a skip pointer.  The reference
functions below are the direct per-node loops: a ``sorted()`` of every
node's strict descendants, a parent walk per node for ``topmost`` and
``Anc(I)``, and a linear scan for the next round-up candidate.  On the
same forest both must give bit-identical ``x``, ``y``, ``topmost``,
``x̃``, ``rounded_up`` and ``moves``.
"""

from __future__ import annotations

from math import ceil, floor
from pathlib import Path

import numpy as np
import pytest

from repro.core.rounding import APPROX_FACTOR, _integral_off_I, round_solution
from repro.core.transform import push_down, verify_pushdown_invariant
from repro.corpus.store import iter_corpus
from repro.flow.feasibility import all_slots_feasible
from repro.instances.generators import deep_chain, random_laminar, wide_star
from repro.lp.nested_lp import solve_nested_lp
from repro.tree.canonical import canonicalize
from repro.util.errors import IntegralityError
from repro.util.numeric import EPS, SUM_EPS, snap_vector

CORPUS_SMOKE = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


# -- reference loops ------------------------------------------------------


def reference_push_down(forest, x, y):
    x = x.astype(float).copy()
    y = y.astype(float).copy()
    lengths = np.array([forest.length(i) for i in range(forest.m)], dtype=float)
    moves = 0
    for i1 in forest.preorder:
        if x[i1] <= EPS:
            continue
        for i2 in sorted(
            forest.strict_descendants(i1), key=lambda k: -forest.depth[k]
        ):
            if x[i1] <= EPS:
                break
            slack = lengths[i2] - x[i2]
            if slack <= EPS:
                continue
            theta = min(slack, x[i1])
            frac = theta / x[i1]
            moved = frac * y[i1, :]
            y[i1, :] -= moved
            y[i2, :] += moved
            x[i1] -= theta
            x[i2] += theta
            moves += 1
    x = snap_vector(x)
    y[np.abs(y) < EPS] = 0.0
    topmost = [
        i
        for i in range(forest.m)
        if x[i] > EPS and all(x[a] <= EPS for a in forest.strict_ancestors(i))
    ]
    return x, y, topmost, moves


def reference_round(forest, x, topmost):
    m = forest.m
    x_tilde = np.empty(m, dtype=float)
    tops = set(topmost)
    for i in range(m):
        if i in tops:
            x_tilde[i] = float(floor(x[i] + EPS))
        else:
            x_tilde[i] = _integral_off_I(x[i], i)
    anc_of_i: set[int] = set()
    for i in topmost:
        anc_of_i.update(forest.ancestors(i))
    rounded_up: list[int] = []
    for i in forest.postorder:
        if i not in anc_of_i:
            continue
        des = forest.descendants(i)
        x_sum = float(x[des].sum())
        while APPROX_FACTOR * x_sum >= float(x_tilde[des].sum()) + 1.0 - SUM_EPS:
            candidate = next(
                (k for k in des if k in tops and x_tilde[k] < x[k] - EPS), None
            )
            if candidate is None:
                break
            x_tilde[candidate] = ceil(x[candidate] - EPS)
            rounded_up.append(candidate)
    return x_tilde, rounded_up


# -- comparison -----------------------------------------------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_identical(forest, x, y) -> int:
    """Run both implementations on ``(x, y)``; returns the push-down moves."""
    ref_x, ref_y, ref_top, ref_moves = reference_push_down(forest, x, y)
    tr = push_down(forest, x, y)
    assert _same_bits(tr.x, ref_x)
    assert _same_bits(tr.y, ref_y)
    assert tr.topmost == ref_top
    assert tr.moves == ref_moves
    assert verify_pushdown_invariant(forest, tr.x)

    try:
        ref_xt, ref_up = reference_round(forest, tr.x, tr.topmost)
    except IntegralityError as exc:
        with pytest.raises(IntegralityError, match=str(exc.node)):
            round_solution(forest, tr.x, tr.topmost)
        return tr.moves
    rounding = round_solution(forest, tr.x, tr.topmost)
    assert _same_bits(rounding.x_tilde, ref_xt)
    assert rounding.rounded_up == ref_up
    return tr.moves


def _lp_case(instance):
    canon = canonicalize(instance)
    sol = solve_nested_lp(canon)
    return canon.forest, sol.x, sol.y


def _synthetic_case(instance, seed):
    """Random fractional open mass on every node, so push-down moves a lot."""
    canon = canonicalize(instance)
    forest = canon.forest
    rng = np.random.default_rng(seed)
    x = forest.lengths * rng.uniform(0.0, 1.0, forest.m)
    x[rng.uniform(size=forest.m) < 0.3] = 0.0
    y = rng.uniform(0.0, 1.0, (forest.m, canon.instance.n)) * x[:, None]
    return forest, x, y


def _corpus_laminar():
    out = []
    for entry in iter_corpus(CORPUS_SMOKE):
        inst = entry.instance()
        if inst.n and inst.is_laminar and all_slots_feasible(inst):
            out.append(inst)
    return out


GENERATED = [
    pytest.param(lambda: wide_star(3, 2, seed=1), id="wide_star-3"),
    pytest.param(lambda: wide_star(40, 3, seed=2), id="wide_star-40"),
    pytest.param(lambda: wide_star(160, 3, seed=3), id="wide_star-160"),
    pytest.param(lambda: deep_chain(30, 2, seed=4), id="deep_chain-30"),
    pytest.param(lambda: deep_chain(60, 3, seed=5), id="deep_chain-60"),
    pytest.param(
        lambda: random_laminar(40, 3, horizon=80, max_children=6, seed=6),
        id="random-40",
    ),
    pytest.param(
        lambda: random_laminar(80, 4, horizon=160, max_children=8, seed=7),
        id="random-80",
    ),
]


class TestIdentityOnLPSolutions:
    def test_smoke_corpus_laminar_instances(self):
        instances = _corpus_laminar()
        assert len(instances) > 200
        for inst in instances:
            assert_identical(*_lp_case(inst))

    @pytest.mark.parametrize("make", GENERATED)
    def test_generator_instances(self, make):
        assert_identical(*_lp_case(make()))


class TestIdentityOnSyntheticMass:
    @pytest.mark.parametrize("make", GENERATED)
    def test_generator_instances(self, make):
        moves = sum(
            assert_identical(*_synthetic_case(make(), seed)) for seed in range(3)
        )
        assert moves > 0

    def test_smoke_corpus_laminar_instances(self):
        moves = 0
        for k, inst in enumerate(_corpus_laminar()[::5]):
            moves += assert_identical(*_synthetic_case(inst, k))
        assert moves > 0
