"""Unit tests for flow-based feasibility (slot level and Lemma 4.1 level)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import feasibility
from repro.flow.csr import FLOW_KERNELS, set_flow_kernel
from repro.flow.feasibility import (
    all_slots_feasible,
    elementary_segments,
    extract_schedule,
    node_assignment,
    node_feasible,
    slot_feasible,
)
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance, Job
from repro.tree.canonical import canonicalize


class TestSlotFeasibility:
    def test_trivially_feasible(self, tiny_instance):
        assert slot_feasible(tiny_instance, [0, 1, 2, 3])

    def test_too_few_slots(self, tiny_instance):
        # Volume 4, g=2 → one slot holds at most 2 units.
        assert not slot_feasible(tiny_instance, [0])

    def test_respects_windows(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1)
        assert not slot_feasible(inst, [5])
        assert slot_feasible(inst, [1])

    def test_capacity_binds(self):
        inst = Instance.from_triples([(0, 2, 1)] * 3, g=2)
        assert not slot_feasible(inst, [0])
        assert slot_feasible(inst, [0, 1])

    def test_empty_instance(self):
        # No jobs: any slot set works, including none.
        inst = Instance.from_triples([(0, 2, 1)], g=1).with_jobs([])
        assert slot_feasible(inst, [])

    def test_all_slots_feasible_detects_overload(self):
        inst = Instance.from_triples([(0, 1, 1)] * 3, g=2)
        assert not all_slots_feasible(inst)

    def test_slots_outside_windows_ignored(self, tiny_instance):
        assert slot_feasible(tiny_instance, [0, 2, 50, 60])


def slot_level_verdict(instance: Instance, active) -> bool:
    """Reference verdict: :func:`extract_schedule` builds the per-slot network."""
    return extract_schedule(instance, list(active)) is not None


def on_kernel(kernel: str, fn, *args):
    prev = set_flow_kernel(kernel)
    try:
        return fn(*args)
    finally:
        set_flow_kernel(prev)


@st.composite
def general_instances(draw):
    """Arbitrary windows (crossing allowed), possibly infeasible, n >= 0."""
    jobs = []
    for k in range(draw(st.integers(0, 6))):
        release = draw(st.integers(0, 12))
        length = draw(st.integers(1, 6))
        jobs.append(
            Job(
                id=k,
                release=release,
                deadline=release + length,
                processing=draw(st.integers(1, length)),
            )
        )
    return Instance(jobs=tuple(jobs), g=draw(st.integers(1, 3)))


@st.composite
def laminar_instances(draw):
    return random_laminar(
        draw(st.integers(1, 10)),
        draw(st.integers(1, 3)),
        horizon=draw(st.integers(4, 30)),
        seed=draw(st.integers(0, 10**6)),
    )


#: Active sets with duplicates and with slots outside every window.
active_sets = st.lists(st.integers(-3, 35), max_size=30)


class TestSegmentLevelMatchesSlotLevel:
    """``slot_feasible`` / ``all_slots_feasible`` run on elementary
    segments; the per-slot network must give the same verdict."""

    @pytest.mark.parametrize("kernel", FLOW_KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(inst=general_instances(), active=active_sets)
    def test_general(self, kernel, inst, active):
        ref = on_kernel(kernel, slot_level_verdict, inst, active)
        assert on_kernel(kernel, slot_feasible, inst, active) == ref
        assert on_kernel(kernel, all_slots_feasible, inst) == on_kernel(
            kernel, slot_level_verdict, inst, inst.slots()
        )

    @pytest.mark.parametrize("kernel", FLOW_KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(inst=laminar_instances(), active=active_sets)
    def test_laminar(self, kernel, inst, active):
        ref = on_kernel(kernel, slot_level_verdict, inst, active)
        assert on_kernel(kernel, slot_feasible, inst, active) == ref
        assert on_kernel(kernel, all_slots_feasible, inst)

    @pytest.mark.parametrize("kernel", FLOW_KERNELS)
    @pytest.mark.parametrize(
        "triples, g, active",
        [
            # duplicate active slots count once
            ([(0, 4, 2)], 1, [1, 1, 1]),
            ([(0, 4, 2)], 1, [1, 1, 3, 3]),
            # slots outside every window (gap, before, after) are ignored
            ([(0, 2, 1), (5, 7, 1)], 1, [-4, 2, 3, 4, 9]),
            ([(0, 2, 1), (5, 7, 1)], 1, [3, 6, 1, 40]),
            # empty active set
            ([(0, 3, 1)], 2, []),
            # jobs sharing endpoints
            ([(0, 3, 2), (3, 6, 2), (0, 6, 3), (0, 6, 1)], 2, [0, 1, 3, 4]),
            ([(0, 3, 2), (3, 6, 2), (0, 6, 3), (0, 6, 1)], 2, [1, 2, 3, 4, 5]),
            ([(2, 5, 3)] * 3, 3, [2, 3, 4]),
        ],
    )
    def test_edge_cases(self, kernel, triples, g, active):
        inst = Instance.from_triples(triples, g=g)
        assert on_kernel(kernel, slot_feasible, inst, active) == on_kernel(
            kernel, slot_level_verdict, inst, active
        )

    @pytest.mark.parametrize("kernel", FLOW_KERNELS)
    def test_no_jobs(self, kernel):
        inst = Instance(jobs=(), g=1)
        for active in ([], [0, 0, 5]):
            assert on_kernel(kernel, slot_feasible, inst, active)
            assert on_kernel(kernel, slot_level_verdict, inst, active)
        assert on_kernel(kernel, all_slots_feasible, inst)

    def test_segments_cut_at_every_endpoint(self):
        inst = Instance.from_triples([(0, 6, 1), (2, 4, 1), (2, 9, 1)], g=1)
        points, lo, hi = elementary_segments(inst)
        assert points.tolist() == [0, 2, 4, 6, 9]
        assert lo.tolist() == [0, 1, 1]
        assert hi.tolist() == [3, 2, 4]

    @pytest.mark.parametrize("kernel", FLOW_KERNELS)
    def test_network_size_independent_of_horizon(self, kernel, monkeypatch):
        """On a long-horizon instance (about 100 jobs, 10 windows, 8000
        slots) the pre-check network has at most ``n + 2n + 2`` nodes."""
        sizes: list[int] = []
        real = feasibility.flow_network

        def recording(n, **kw):
            sizes.append(n)
            return real(n, **kw)

        inst = random_laminar(
            100, 4, horizon=8000, n_windows=10, p_max=20, seed=3
        )
        assert inst.horizon.length >= 4000
        monkeypatch.setattr(feasibility, "flow_network", recording)
        assert on_kernel(kernel, all_slots_feasible, inst)
        on_kernel(kernel, slot_feasible, inst, range(0, 8000, 3))
        assert len(sizes) == 2
        assert all(size <= inst.n + 2 * inst.n + 2 for size in sizes)


class TestExtractSchedule:
    def test_valid_schedule_extracted(self, tiny_instance):
        sched = extract_schedule(tiny_instance, [0, 2])
        assert sched is not None
        assert sched.is_valid
        assert sched.active_time <= 2

    def test_none_on_infeasible(self, tiny_instance):
        assert extract_schedule(tiny_instance, [0]) is None

    def test_schedule_uses_only_given_slots(self, medium_laminar):
        slots = sorted(
            {t for j in medium_laminar.jobs for t in range(j.release, j.deadline)}
        )
        sched = extract_schedule(medium_laminar, slots)
        assert sched is not None
        used = {t for ts in sched.assignment.values() for t in ts}
        assert used <= set(slots)


class TestNodeFeasibility:
    def _setup(self, seed=0):
        inst = random_laminar(8, 2, horizon=20, seed=seed)
        canon = canonicalize(inst)
        return canon

    def test_full_lengths_always_feasible(self):
        canon = self._setup()
        x = [canon.forest.length(i) for i in range(canon.forest.m)]
        assert node_feasible(canon.instance, canon.forest, canon.job_node, x)

    def test_zero_vector_infeasible(self):
        canon = self._setup()
        x = [0] * canon.forest.m
        assert not node_feasible(canon.instance, canon.forest, canon.job_node, x)

    def test_node_assignment_totals(self):
        canon = self._setup(seed=4)
        x = [canon.forest.length(i) for i in range(canon.forest.m)]
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        assert y is not None
        per_job: dict[int, int] = {}
        for (i, jid), units in y.items():
            per_job[jid] = per_job.get(jid, 0) + units
            assert units <= x[i]
        for job in canon.instance.jobs:
            assert per_job.get(job.id, 0) == job.processing

    def test_node_capacity_respected(self):
        canon = self._setup(seed=7)
        x = [canon.forest.length(i) for i in range(canon.forest.m)]
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        load: dict[int, int] = {}
        for (i, _), units in y.items():
            load[i] = load.get(i, 0) + units
        for i, total in load.items():
            assert total <= canon.instance.g * x[i]

    @pytest.mark.parametrize("seed", range(6))
    def test_node_level_agrees_with_slot_level(self, seed):
        """Interchangeability: per-node counts ⇔ concrete slot choice."""
        canon = self._setup(seed=seed)
        forest = canon.forest
        import random

        rng = random.Random(seed)
        x = [
            rng.randint(0, forest.length(i)) for i in range(forest.m)
        ]
        node_ok = node_feasible(canon.instance, forest, canon.job_node, x)
        slots: list[int] = []
        for i in range(forest.m):
            slots.extend(forest.exclusive_slots(i)[: x[i]])
        slot_ok = slot_feasible(canon.instance, slots)
        assert node_ok == slot_ok
