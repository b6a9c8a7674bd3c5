"""Canonical trees (Definition 2.1): binary with rigid leaves.

Two instance-preserving transformations from Section 2:

1. *Binarization*: a node with ``t > 2`` children gets a balanced binary
   tree of virtual hull nodes (children sorted by start, split into
   halves recursively), so every node has at most 2 children and the
   original children sit ``⌈log₂ t⌉`` levels below it.  A virtual node's
   interval is the hull of the children it groups; its length counts the
   gap slots between those children (the paper's ``L = 0`` is the special
   case of gap-free hulls — computing ``L`` from intervals keeps the
   instance literally unchanged, since a gap slot serves exactly the same
   job set whether it is charged to the parent or to the virtual node).
2. *Rigid leaves*: a leaf whose longest job ``j`` has ``p_j < |K(leaf)|``
   gets a child covering the first ``p_j`` slots, and ``j``'s window is
   shrunk to it.  The new leaf is rigid (any feasible solution opens all of
   it).  W.l.o.g. valid because slots inside a leaf are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.instances.jobs import Instance, Job
from repro.tree.laminar import forest_nodes
from repro.tree.node import TreeNode, WindowForest
from repro.util.intervals import Interval


@dataclass(frozen=True)
class CanonicalInstance:
    """A canonicalized laminar instance with its window forest.

    Attributes
    ----------
    instance:
        The transformed instance (some job windows may be shrunk).  Any
        schedule for it is a schedule for :attr:`original` with the same
        number of active slots, and the optima coincide.
    original:
        The instance as given by the caller.
    forest:
        Canonical window forest (binary, rigid leaves).
    job_node:
        Maps job id to its tree node ``k(j)`` in :attr:`forest`.
    shrunk_jobs:
        Job ids whose windows were shrunk by the rigid-leaf step.
    """

    instance: Instance
    original: Instance
    forest: WindowForest
    job_node: dict[int, int]
    shrunk_jobs: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.forest.m


def _binarize(nodes: list[TreeNode]) -> None:
    """Insert virtual hull nodes until every node has at most 2 children.

    A node's children are sorted by start once and split into halves
    recursively; each half of two or more children becomes a virtual
    node over their hull.  A ``k``-child node thus gets ``k - 2`` virtual
    nodes and its children end up ``⌈log₂ k⌉`` levels below it.
    """
    for idx in range(len(nodes)):
        if len(nodes[idx].children) > 2:
            kids = sorted(nodes[idx].children, key=lambda c: nodes[c].start)
            nodes[idx].children = _split_halves(nodes, idx, kids)


def _split_halves(nodes: list[TreeNode], parent: int, kids: list[int]) -> list[int]:
    """Children of ``parent`` for the start-sorted group ``kids``: each half
    is kept as is when it is a single node, else wrapped in a hull node."""
    mid = (len(kids) + 1) // 2
    out: list[int] = []
    for half in (kids[:mid], kids[mid:]):
        if len(half) == 1:
            nodes[half[0]].parent = parent
            out.append(half[0])
            continue
        v = TreeNode(
            index=len(nodes),
            interval=Interval(nodes[half[0]].start, nodes[half[-1]].end),
            parent=parent,
            virtual=True,
        )
        nodes.append(v)
        v.children = _split_halves(nodes, v.index, half)
        out.append(v.index)
    return out


def _make_leaves_rigid(
    nodes: list[TreeNode], jobs_by_id: dict[int, Job]
) -> list[int]:
    """Apply the rigid-leaf transformation; returns ids of shrunk jobs."""
    shrunk: list[int] = []
    for idx in [n.index for n in nodes if n.is_leaf]:
        node = nodes[idx]
        if not node.job_ids:
            # Virtual nodes are internal by construction; a jobless real
            # leaf cannot exist (each node carries at least one job window).
            raise AssertionError(f"leaf node {idx} has no jobs")
        longest = max(node.job_ids, key=lambda jid: jobs_by_id[jid].processing)
        p = jobs_by_id[longest].processing
        if p == node.interval.length:
            continue  # already rigid
        child_iv = Interval(node.start, node.start + p)
        child = TreeNode(
            index=len(nodes),
            interval=child_iv,
            parent=idx,
            children=[],
            job_ids=[longest],
            virtual=False,
        )
        nodes.append(child)
        node.children.append(child.index)
        node.job_ids.remove(longest)
        jobs_by_id[longest] = jobs_by_id[longest].with_window(
            child_iv.start, child_iv.end
        )
        shrunk.append(longest)
    return shrunk


def canonicalize(instance: Instance) -> CanonicalInstance:
    """Build the canonical (binary, rigid-leaf) form of a laminar instance."""
    nodes, _ = forest_nodes(instance)
    jobs_by_id = {j.id: j for j in instance.jobs}

    _binarize(nodes)
    shrunk = _make_leaves_rigid(nodes, jobs_by_id)

    canon_forest = WindowForest(nodes)
    canon_forest.validate_laminar_partition()
    job_node = {
        jid: n.index for n in canon_forest.nodes for jid in n.job_ids
    }
    new_jobs = tuple(jobs_by_id[j.id] for j in instance.jobs)
    canon_instance = Instance(
        jobs=new_jobs, g=instance.g, name=instance.name or "canonical"
    )
    return CanonicalInstance(
        instance=canon_instance,
        original=instance,
        forest=canon_forest,
        job_node=job_node,
        shrunk_jobs=tuple(shrunk),
    )


def is_canonical(forest: WindowForest, jobs_by_id: dict[int, Job]) -> bool:
    """Check Definition 2.1: binary tree with rigid leaves."""
    for node in forest.nodes:
        if len(node.children) > 2:
            return False
        if node.is_leaf:
            if not node.job_ids:
                return False
            longest = max(jobs_by_id[j].processing for j in node.job_ids)
            if longest != node.interval.length:
                return False
    return True
