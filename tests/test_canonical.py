"""Unit tests for canonicalization (Definition 2.1): binary + rigid leaves."""

import pytest

from repro.instances.generators import random_laminar, wide_star
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize, is_canonical
from repro.tree.laminar import build_forest


class TestBinarization:
    def test_wide_node_gets_virtual_children(self):
        # Root [0,9) with three children [0,3), [3,6), [6,9).
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 3, 1), (3, 6, 1), (6, 9, 1)], g=2
        )
        canon = canonicalize(inst)
        for node in canon.forest.nodes:
            assert len(node.children) <= 2
        assert any(n.virtual for n in canon.forest.nodes)

    def test_virtual_hull_preserves_total_length(self):
        inst = Instance.from_triples(
            [(0, 12, 1), (0, 3, 1), (4, 6, 1), (8, 11, 1)], g=2
        )
        canon = canonicalize(inst)
        # Sum of L over all nodes must equal the horizon slots covered.
        total = sum(canon.forest.length(i) for i in range(canon.forest.m))
        assert total == 12

    def test_gap_slots_live_in_virtual_hull(self):
        # Children [0,3), [4,6) leave gap slot 3 inside the virtual hull.
        inst = Instance.from_triples(
            [(0, 12, 1), (0, 3, 1), (4, 6, 1), (8, 11, 1)], g=2
        )
        canon = canonicalize(inst)
        virtuals = [n for n in canon.forest.nodes if n.virtual]
        assert virtuals
        assert any(canon.forest.length(v.index) > 0 for v in virtuals)


class TestRigidLeaves:
    def test_slack_leaf_gets_rigid_child(self):
        inst = Instance.from_triples([(0, 5, 2)], g=1)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        assert is_canonical(canon.forest, jobs)
        # The job's window was shrunk to its first 2 slots.
        assert jobs[0].deadline - jobs[0].release == 2
        assert canon.shrunk_jobs == (0,)

    def test_already_rigid_leaf_untouched(self):
        inst = Instance.from_triples([(0, 3, 3)], g=1)
        canon = canonicalize(inst)
        assert canon.shrunk_jobs == ()
        assert canon.instance.jobs == inst.jobs

    def test_longest_job_chosen(self):
        inst = Instance.from_triples([(0, 6, 2), (0, 6, 4)], g=2)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        # The p=4 job defines the rigid child.
        assert canon.shrunk_jobs == (1,)
        assert jobs[1].deadline == 4
        assert jobs[0].deadline == 6  # the shorter job keeps its window


class TestCanonicalInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_become_canonical(self, seed):
        inst = random_laminar(10, 3, horizon=24, seed=seed)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        assert is_canonical(canon.forest, jobs)

    def test_windows_only_shrink(self):
        inst = random_laminar(12, 2, horizon=30, seed=3)
        canon = canonicalize(inst)
        orig = {j.id: j for j in inst.jobs}
        for job in canon.instance.jobs:
            assert job.release >= orig[job.id].release
            assert job.deadline <= orig[job.id].deadline
            assert job.processing == orig[job.id].processing

    def test_job_node_consistent(self):
        inst = wide_star(4, 2, seed=1)
        canon = canonicalize(inst)
        for job in canon.instance.jobs:
            node = canon.forest.nodes[canon.job_node[job.id]]
            assert node.interval.start == job.release
            assert node.interval.end == job.deadline

    def test_every_leaf_has_jobs(self):
        inst = random_laminar(15, 3, horizon=30, seed=9)
        canon = canonicalize(inst)
        for leaf in canon.forest.leaves():
            assert canon.forest.nodes[leaf].job_ids

    def test_total_length_preserved(self):
        inst = random_laminar(14, 2, horizon=28, seed=5)
        raw_cover = sorted(
            {t for j in inst.jobs for t in range(j.release, j.deadline)}
        )
        canon = canonicalize(inst)
        total = sum(canon.forest.length(i) for i in range(canon.forest.m))
        assert total == len(raw_cover)



class TestBalancedBinarization:
    @pytest.mark.parametrize("k", [3, 5, 160, 1600])
    def test_wide_star_shape(self, k):
        inst = wide_star(k, 3, seed=k)
        raw, _ = build_forest(inst)
        assert len(raw.nodes[raw.roots[0]].children) == k
        canon = canonicalize(inst)
        forest = canon.forest
        for node in forest.nodes:
            assert len(node.children) <= 2
            if node.virtual:
                kids = sorted(forest.nodes[c].interval for c in node.children)
                assert node.interval.start == kids[0].start
                assert node.interval.end == kids[-1].end
        assert max(forest.depth) <= (k - 1).bit_length() + 2  # ⌈log₂ k⌉ + 2
        # k - 2 hull nodes over the k-child root, as many as a comb adds,
        # plus one rigid child per shrunk job.
        assert forest.m == raw.m + (k - 2) + len(canon.shrunk_jobs)

    def test_three_children_group_the_first_two(self):
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 3, 1), (3, 6, 1), (6, 9, 1)], g=2
        )
        forest = canonicalize(inst).forest
        root = forest.nodes[forest.roots[0]]
        hull, last = (forest.nodes[c] for c in root.children)
        assert hull.virtual and (hull.start, hull.end) == (0, 6)
        assert not last.virtual and (last.start, last.end) == (6, 9)

    def test_ceiling_rows_grow_near_linearly(self):
        from repro.lp.nested_lp import build_nested_lp

        def nnz(k):
            lp, _ = build_nested_lp(canonicalize(wide_star(k, 3, seed=0)))
            parts = lp.compile()
            return sum(
                parts[key].nnz for key in ("A_ub", "A_eq") if parts[key] is not None
            )

        # A comb made this ratio about 4 (quadratic ceiling rows).
        assert nnz(400) / nnz(200) <= 2.5
