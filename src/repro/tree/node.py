"""Tree node and forest structures for laminar window families.

Nodes follow Section 2 of the paper: each node ``i`` carries an interval
``K(i)`` equal to some job window (or a virtual interval introduced by
canonicalization), and its *length* ``L(i)`` is the number of slots in
``K(i)`` that belong to no child interval.  The windows of a laminar
instance in general form a *forest*; the paper assumes a single tree
w.l.o.g., while we handle forests directly (all definitions are per-tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.util.errors import InvalidInstanceError
from repro.util.intervals import Interval


@dataclass
class TreeNode:
    """One node of a window forest.

    Attributes
    ----------
    index:
        Position in :attr:`WindowForest.nodes` (the paper's node id).
    interval:
        The node interval ``K(i)``.
    parent:
        Index of the parent node, or ``None`` for roots.
    children:
        Indices of child nodes, ordered by interval start.
    job_ids:
        Ids of jobs ``j`` with ``k(j) = i`` (window equal to ``K(i)``).
    virtual:
        True for nodes introduced by canonicalization (no job has this
        exact window originally).
    """

    index: int
    interval: Interval
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    job_ids: list[int] = field(default_factory=list)
    virtual: bool = False

    @property
    def start(self) -> int:
        return self.interval.start

    @property
    def end(self) -> int:
        return self.interval.end

    @property
    def is_leaf(self) -> bool:
        return not self.children


class WindowForest:
    """A laminar forest of window nodes with fast ancestor/descendant queries.

    The structure is immutable after construction; canonicalization builds a
    new forest.  Descendant sets use Euler-tour intervals (``tin``/``tout``)
    so membership tests are O(1) and subtree iteration is contiguous: for
    any per-node array ``v``, ``v[forest.pre][tin[i]:tout[i]]`` holds
    ``v[Des(i)]`` in preorder.  ``lengths`` and ``parents`` (``-1`` for a
    root), ``starts``, ``ends`` are precomputed arrays; ``pre``,
    ``tin_array``, ``tout_array`` and ``depth_array`` are array copies of
    the Euler-tour lists.
    """

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        self.nodes: list[TreeNode] = list(nodes)
        self.roots: list[int] = [n.index for n in self.nodes if n.parent is None]
        self._validate()
        self._build_orders()
        m = len(self.nodes)
        self.parents = np.array(
            [-1 if n.parent is None else n.parent for n in self.nodes],
            dtype=np.int64,
        )
        self.starts = np.array([n.interval.start for n in self.nodes], dtype=np.int64)
        self.ends = np.array([n.interval.end for n in self.nodes], dtype=np.int64)
        spans = self.ends - self.starts
        below = self.parents >= 0
        covered = np.zeros(m, dtype=np.int64)
        np.add.at(covered, self.parents[below], spans[below])
        self.lengths = spans - covered
        self.pre = np.array(self.preorder, dtype=np.int64)
        self.tin_array = np.array(self.tin, dtype=np.int64)
        self.tout_array = np.array(self.tout, dtype=np.int64)
        self.depth_array = np.array(self.depth, dtype=np.int64)

    # -- construction-time checks and indexes ---------------------------

    def _validate(self) -> None:
        nodes = self.nodes
        for k, node in enumerate(nodes):
            if node.index != k:
                raise InvalidInstanceError(
                    f"node index {node.index} does not match position {k}"
                )
            iv = node.interval
            for c in node.children:
                child = nodes[c]
                if child.parent != k:
                    raise InvalidInstanceError(
                        f"child {c} of node {k} has parent {child.parent}"
                    )
                civ = child.interval
                if not (
                    iv.start <= civ.start
                    and civ.end <= iv.end
                    and iv.length > civ.length
                ):
                    raise InvalidInstanceError(
                        f"child interval {civ} not strictly inside "
                        f"{iv} (nodes {c} <- {k})"
                    )

    def _build_orders(self) -> None:
        m = len(self.nodes)
        children = [n.children for n in self.nodes]
        parent = [n.parent for n in self.nodes]
        # Preorder takes children left to right; the postorder is the
        # reverse of the mirrored preorder (children right to left).
        self.preorder: list[int] = []
        stack = self.roots[::-1]
        while stack:
            i = stack.pop()
            self.preorder.append(i)
            stack.extend(reversed(children[i]))
        mirrored: list[int] = []
        stack = list(self.roots)
        while stack:
            i = stack.pop()
            mirrored.append(i)
            stack.extend(children[i])
        self.postorder: list[int] = mirrored[::-1]
        self.tin = [0] * m
        self.depth = [0] * m
        for k, i in enumerate(self.preorder):
            self.tin[i] = k
            p = parent[i]
            if p is not None:
                self.depth[i] = self.depth[p] + 1
        size = [1] * m
        for i in self.postorder:
            p = parent[i]
            if p is not None:
                size[p] += size[i]
        self.tout = [t + s for t, s in zip(self.tin, size)]

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    # -- queries (Section 2 notation) -------------------------------------

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when ``a`` is an ancestor of ``b`` (inclusive: Anc includes self)."""
        return self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a]

    def ancestors(self, i: int) -> list[int]:
        """``Anc(i)``: ancestors of ``i`` including ``i``, bottom-up."""
        out = [i]
        p = self.nodes[i].parent
        while p is not None:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def strict_ancestors(self, i: int) -> list[int]:
        """``Anc+(i)``: ancestors excluding ``i``, bottom-up."""
        return self.ancestors(i)[1:]

    def descendants(self, i: int) -> list[int]:
        """``Des(i)``: descendants of ``i`` including ``i``, preorder.

        The clock only ticks at pre-visits, so a subtree occupies the
        contiguous preorder range ``[tin[i], tout[i])``.
        """
        return self.preorder[self.tin[i] : self.tout[i]]

    def strict_descendants(self, i: int) -> list[int]:
        """``Des+(i)``: descendants excluding ``i``."""
        return self.preorder[self.tin[i] + 1 : self.tout[i]]

    def below_marked(self, mask: np.ndarray) -> np.ndarray:
        """Per node: does it have a strict ancestor where ``mask`` is true?

        One prefix sum over preorder: each marked node ``a`` covers the
        preorder positions ``(tin[a], tout[a])`` of its strict descendants.
        """
        marked = np.flatnonzero(mask)
        m = self.m
        cover = np.bincount(self.tin_array[marked] + 1, minlength=m + 1)
        cover -= np.bincount(self.tout_array[marked], minlength=m + 1)
        return (np.cumsum(cover[:m]) > 0)[self.tin_array]

    def above_marked(self, mask: np.ndarray) -> np.ndarray:
        """Per node ``i``: does ``Des(i)`` (``i`` included) hold a marked node?"""
        counts = np.concatenate(([0], np.cumsum(np.asarray(mask)[self.pre])))
        return counts[self.tout_array] > counts[self.tin_array]

    def parent(self, i: int) -> int | None:
        return self.nodes[i].parent

    def leaves(self, i: int | None = None) -> list[int]:
        """Leaf nodes under ``i`` (or of the whole forest)."""
        pool = self.descendants(i) if i is not None else range(self.m)
        return [k for k in pool if self.nodes[k].is_leaf]

    # -- lengths and exclusive slots --------------------------------------

    def length(self, i: int) -> int:
        """``L(i)``: slots in ``K(i)`` outside every child interval.

        Computed from intervals (for virtual hull nodes this counts the gap
        slots between children, generalizing the paper's ``L = 0``
        convention for contiguous virtual nodes).
        """
        return int(self.lengths[i])

    def exclusive_slots(self, i: int) -> list[int]:
        """The concrete slots counted by ``L(i)``, in increasing order."""
        node = self.nodes[i]
        covered: list[Interval] = sorted(
            (self.nodes[c].interval for c in node.children),
            key=lambda iv: iv.start,
        )
        out: list[int] = []
        t = node.interval.start
        for iv in covered:
            out.extend(range(t, iv.start))
            t = iv.end
        out.extend(range(t, node.interval.end))
        return out

    def node_at_slot(self, t: int) -> int | None:
        """Deepest node whose interval contains slot ``t`` (or ``None``)."""
        found: int | None = None
        candidates = self.roots
        while True:
            nxt = None
            for idx in candidates:
                if t in self.nodes[idx].interval:
                    nxt = idx
                    break
            if nxt is None:
                return found
            found = nxt
            candidates = self.nodes[nxt].children

    def bottom_up(self) -> list[int]:
        """Nodes in bottom-to-top order (reverse preorder is not enough;
        postorder guarantees children before parents)."""
        return list(self.postorder)

    def job_count(self) -> int:
        return sum(len(n.job_ids) for n in self.nodes)

    def validate_laminar_partition(self) -> None:
        """Assert siblings are pairwise disjoint (defensive check)."""
        kids = np.flatnonzero(self.parents >= 0)
        kids = kids[np.lexsort((self.starts[kids], self.parents[kids]))]
        a, b = kids[:-1], kids[1:]
        clash = (self.parents[a] == self.parents[b]) & (self.ends[a] > self.starts[b])
        if clash.any():
            node = int(self.parents[a[np.argmax(clash)]])
            raise InvalidInstanceError(f"sibling intervals overlap under node {node}")

