"""Construction of the window forest from a laminar instance (Section 2).

One tree node per *distinct* job window; node ``i'`` is a child of ``i``
when ``K(i') ⊊ K(i)`` with no window strictly between.  Jobs map onto nodes
via ``k(j)``.
"""

from __future__ import annotations

from repro.instances.jobs import Instance
from repro.tree.node import TreeNode, WindowForest


def build_forest(instance: Instance) -> tuple[WindowForest, dict[int, int]]:
    """Build the window forest of a laminar instance.

    Returns
    -------
    (forest, job_node):
        ``forest`` is the :class:`WindowForest`; ``job_node`` maps each job
        id to its node index ``k(j)``.

    Raises
    ------
    NotLaminarError
        If the instance windows cross.
    """
    nodes, job_node = forest_nodes(instance)
    forest = WindowForest(nodes)
    forest.validate_laminar_partition()
    return forest, job_node


def forest_nodes(instance: Instance) -> tuple[list[TreeNode], dict[int, int]]:
    """The nodes of :func:`build_forest`'s forest, before indexing.

    Children are listed by start, so siblings are disjoint by
    laminarity.  Callers that go on to edit the tree build the
    :class:`WindowForest` once they are done.
    """
    instance.require_laminar()
    windows = instance.windows  # sorted by (start, -end): parents precede children
    nodes: list[TreeNode] = []
    node_of_window: dict[tuple[int, int], int] = {}
    # Stack sweep: the sort order guarantees every ancestor of a window is
    # seen before it, so the containment stack top is its parent.
    stack: list[int] = []
    for iv in windows:
        while stack and nodes[stack[-1]].interval.end <= iv.start:
            stack.pop()
        parent = stack[-1] if stack else None
        idx = len(nodes)
        nodes.append(TreeNode(index=idx, interval=iv, parent=parent))
        node_of_window[iv.start, iv.end] = idx
        if parent is not None:
            nodes[parent].children.append(idx)
        stack.append(idx)

    job_node: dict[int, int] = {}
    for job in instance.jobs:
        idx = node_of_window[job.release, job.deadline]
        nodes[idx].job_ids.append(job.id)
        job_node[job.id] = idx
    return nodes, job_node
