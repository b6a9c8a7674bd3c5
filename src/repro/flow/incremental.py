"""Incremental max-flow engine for warm-started feasibility probing.

Every feasibility decision in the library — greedy deactivation
(Chang–Khuller–Mukherjee minimal feasible sets), branch-and-bound
probing in the exact solver, and the Lemma 4.1 node-level checks —
reduces to the same question on the same three-layer network::

    source --p_j--> job j --c(i)--> bucket i --g*c(i)--> sink

where a *bucket* is a slot class (interchangeable slots with identical
covering-window sets) or a window-tree node, and ``c(i)`` is the number
of open slots in that bucket.  Historically each probe built a fresh
:class:`~repro.flow.dinic.MaxFlow` and re-pushed the full ``Σ p_j``
volume from scratch; the consumers, however, probe *sequences* of count
vectors that differ in one or two buckets per step, so almost all of
that work repeats.

This module keeps one network per (instance, buckets) pair alive across
probes:

* :class:`IncrementalFlow` layers capacity mutation onto ``MaxFlow``.
  :meth:`IncrementalFlow.set_capacity` rebases an edge's capacity; when
  the new capacity is below the flow currently on the edge it *repairs*
  the flow first — the excess is cancelled along residual flow-carrying
  paths (backwards from the edge's tail to the source, forwards from its
  head to the sink), so the invariant *flow ≤ capacity everywhere, flow
  conservation at every internal node* holds after every mutation.
* :class:`ClassFlowProber` drives it at the bucket level: ``probe(counts)``
  diffs the requested counts against the network's current state,
  mutates only the changed buckets, and re-augments just the deficit.
  For a single slot removal at capacity ``g`` the repair cancels at most
  ``g`` units and the re-augmentation pushes at most ``g`` units back —
  independent of ``Σ p_j``.

The from-scratch path stays available as a pinnable *reference backend*
(:func:`set_flow_backend` / ``REPRO_FLOW_BACKEND``), and a *differential
backend* runs both on every probe and raises :class:`FlowMismatchError`
on any disagreement — the fuzz campaigns and the E15 agreement sweep pin
that one.

Instrumentation mirrors the solver service: module-level counters
(networks built, probes answered warm, augmenting paths, units repaired)
are exposed through :func:`flow_stats` and the CLI ``--stats`` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.flow.csr import flow_network
from repro.flow.dinic import MaxFlow
from repro.util.errors import SolverError

#: Environment override for the probe backend (lowest priority).
FLOW_BACKEND_ENV = "REPRO_FLOW_BACKEND"

#: Known probe backends, in the order the docs list them.
FLOW_BACKENDS = ("incremental", "reference", "differential")

DEFAULT_FLOW_BACKEND = "incremental"


class FlowMismatchError(SolverError):
    """The incremental engine and the reference path disagreed on a probe.

    Raised only under the ``differential`` backend; carries the count
    vector so the failing probe can be replayed in isolation.

    Attributes
    ----------
    counts:
        The probed per-bucket count vector.
    incremental / reference:
        The two verdicts (always differing).
    """

    def __init__(
        self,
        message: str,
        *,
        counts: tuple[int, ...] = (),
        incremental: bool | None = None,
        reference: bool | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("kind", "numerical")
        super().__init__(message, **kwargs)
        self.counts = tuple(counts)
        self.incremental = incremental
        self.reference = reference


# ---------------------------------------------------------------------------
# Instrumentation (solver-service-style module counters)
# ---------------------------------------------------------------------------


@dataclass
class FlowEngineStats:
    """Mutable counters for the incremental flow engine (process-global)."""

    networks_built: int = 0  # incremental networks constructed
    probes: int = 0  # feasibility probes answered by the engine
    rebuilds_avoided: int = 0  # probes answered warm (no fresh network)
    reference_probes: int = 0  # from-scratch probes (reference backend)
    augmenting_paths: int = 0  # paths pushed while re-augmenting
    units_repaired: int = 0  # flow units cancelled by capacity drops
    units_augmented: int = 0  # flow units pushed by re-augmentation

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy, safe to diff across further probes."""
        return {
            "networks_built": self.networks_built,
            "probes": self.probes,
            "rebuilds_avoided": self.rebuilds_avoided,
            "reference_probes": self.reference_probes,
            "augmenting_paths": self.augmenting_paths,
            "units_repaired": self.units_repaired,
            "units_augmented": self.units_augmented,
        }

    def reset(self) -> None:
        self.networks_built = 0
        self.probes = 0
        self.rebuilds_avoided = 0
        self.reference_probes = 0
        self.augmenting_paths = 0
        self.units_repaired = 0
        self.units_augmented = 0


_STATS = FlowEngineStats()


def flow_stats() -> dict[str, int]:
    """Snapshot of the process-global flow engine counters."""
    return _STATS.snapshot()


def reset_flow_stats() -> None:
    """Zero the process-global flow engine counters."""
    _STATS.reset()


def flow_stats_delta(
    after: Mapping[str, int], before: Mapping[str, int]
) -> dict[str, int]:
    """``after - before`` for two :func:`flow_stats` snapshots."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def render_flow_stats(snap: Mapping[str, Any]) -> str:
    """A compact aligned text block for the CLI ``--stats`` flag."""
    rows = [
        ("networks built", snap.get("networks_built", 0)),
        ("probes", snap.get("probes", 0)),
        ("rebuilds avoided", snap.get("rebuilds_avoided", 0)),
        ("reference probes", snap.get("reference_probes", 0)),
        ("augmenting paths", snap.get("augmenting_paths", 0)),
        ("flow units repaired", snap.get("units_repaired", 0)),
        ("flow units augmented", snap.get("units_augmented", 0)),
    ]
    width = max(len(label) for label, _ in rows)
    lines = ["flow engine stats"]
    for label, value in rows:
        lines.append(f"  {label.ljust(width)}  {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

_BACKEND_OVERRIDE: str | None = None


def get_flow_backend() -> str:
    """The active probe backend: override > environment > default."""
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    env = os.environ.get(FLOW_BACKEND_ENV)
    if env:
        name = env.strip().lower()
        if name not in FLOW_BACKENDS:
            raise ValueError(
                f"${FLOW_BACKEND_ENV}={env!r} is not one of {FLOW_BACKENDS}"
            )
        return name
    return DEFAULT_FLOW_BACKEND


def set_flow_backend(name: str | None) -> str | None:
    """Pin the probe backend process-wide; returns the previous override.

    ``None`` clears the pin (environment/default apply again).  Typical
    use is a try/finally pair in benchmarks and tests::

        previous = set_flow_backend("reference")
        try:
            ...
        finally:
            set_flow_backend(previous)
    """
    global _BACKEND_OVERRIDE
    if name is not None and name not in FLOW_BACKENDS:
        raise ValueError(f"backend {name!r} not one of {FLOW_BACKENDS}")
    previous = _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = name
    return previous


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class IncrementalFlow:
    """A :class:`MaxFlow` whose edge capacities may change between solves.

    The wrapped network must be *acyclic* (every network in this library
    is a layered ``s → jobs → buckets → t`` DAG); flow decomposition on a
    DAG has no cycles, so cancelling excess along flow-carrying residual
    paths always terminates and always reaches the source/sink.

    Invariant maintained by every public method: the wrapped network
    holds a valid (not necessarily maximum) ``s``-``t`` flow of value
    :attr:`value`, with ``flow(e) ≤ capacity(e)`` on every edge.
    """

    def __init__(
        self, n: int, source: int, sink: int, *, kernel: str | None = None
    ) -> None:
        self.net = flow_network(n, kernel=kernel)
        self.source = source
        self.sink = sink
        self.value = 0.0
        _STATS.networks_built += 1

    # -- construction ------------------------------------------------------

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add an edge (before or between solves); returns its even id."""
        return self.net.add_edge(u, v, capacity)

    def add_edges(self, us, vs, caps) -> list[int]:
        """Bulk :meth:`add_edge`; returns the even ids, in order."""
        return self.net.add_edges(us, vs, caps)

    def add_node(self) -> int:
        """Append a fresh isolated node (before or between solves)."""
        return self.net.add_node()

    def drop_edge(self, eid: int) -> None:
        """Detach a flow-free edge (see :meth:`MaxFlow.drop_edge`).

        The flow value is untouched — the network refuses to drop an
        edge that still carries flow, so cancel it first with
        :meth:`set_capacity`.
        """
        if eid & 1:
            raise ValueError(f"edge id {eid} is a reverse edge")
        self.net.drop_edge(eid)

    # -- inspection --------------------------------------------------------

    def edge_flow(self, eid: int) -> float:
        return self.net.edge_flow(eid)

    def capacity(self, eid: int) -> float:
        """Current capacity of edge ``eid`` (reflects mutations)."""
        if eid & 1:
            raise ValueError(f"edge id {eid} is a reverse edge")
        return self.net._initial_cap[eid]

    # -- mutation with flow repair ----------------------------------------

    def set_capacity(self, eid: int, capacity: float) -> float:
        """Rebase edge ``eid`` to ``capacity``, repairing flow if needed.

        When the edge currently carries more flow than the new capacity
        allows, the excess is cancelled along residual flow-carrying
        paths through the edge (tail → source backwards, head → sink
        forwards), lowering :attr:`value` by exactly the excess.  Returns
        the number of flow units repaired (0.0 for pure increases).
        """
        if eid & 1:
            raise ValueError(
                f"edge id {eid} is a reverse edge; set_capacity() takes "
                f"the even id returned by add_edge()"
            )
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        net = self.net
        flow = net._initial_cap[eid] - net.cap[eid]
        repaired = 0.0
        if flow > capacity:
            repaired = flow - capacity
            self._cancel_through(eid, repaired)
            flow = capacity
        # Rebase: keep flow, give the edge its new headroom.  The
        # reverse edge's capacity *is* the flow, so it needs no change.
        net._initial_cap[eid] = capacity
        net.cap[eid] = capacity - flow
        return repaired

    def _cancel_through(self, eid: int, excess: float) -> None:
        """Remove ``excess`` units of s-t flow passing through ``eid``."""
        net = self.net
        tail = net.to[eid ^ 1]
        head = net.to[eid]
        remaining = excess
        while remaining > 0:
            back = self._flow_path(tail, self.source, incoming=True)
            fwd = self._flow_path(head, self.sink, incoming=False)
            path = back + [eid] + fwd
            slack = min(
                remaining,
                min(net._initial_cap[e] - net.cap[e] for e in path),
            )
            assert slack > 0, "flow-carrying path with zero slack"
            for e in path:
                net.cap[e] += slack
                net.cap[e ^ 1] -= slack
            remaining -= slack
        self.value -= excess
        _STATS.units_repaired += int(excess)

    def _flow_path(self, start: int, goal: int, *, incoming: bool) -> list[int]:
        """Original-edge ids of a flow-carrying path ``start`` → ``goal``.

        ``incoming=True`` walks *against* the flow (via edges carrying
        flow into each node, toward the source); ``incoming=False`` walks
        *with* it (toward the sink).  Exists by flow conservation; the
        acyclicity precondition bounds the walk by the node count.
        """
        net = self.net
        path: list[int] = []
        node = start
        for _ in range(net.n + 1):
            if node == goal:
                return path
            for eid in net.head[node]:
                if incoming:
                    # Reverse arcs in head[node] are odd; their pair is
                    # an original arc into `node`, carrying flow equal to
                    # the reverse arc's capacity.
                    if eid & 1 and net.cap[eid] > 0:
                        path.append(eid ^ 1)
                        node = net.to[eid]
                        break
                else:
                    if not eid & 1 and net.cap[eid ^ 1] > 0:
                        path.append(eid)
                        node = net.to[eid]
                        break
            else:
                raise SolverError(
                    f"flow conservation violated at node {node} during "
                    f"repair (is the network acyclic?)"
                )
        raise SolverError(
            "flow repair walk exceeded the node count — cyclic flow?"
        )

    # -- solving -----------------------------------------------------------

    def augment(self) -> float:
        """Re-augment to a maximum flow from the current state.

        Returns the increment; :attr:`value` is updated in place.
        """
        before_paths = self.net.augment_paths
        pushed = self.net.augment(self.source, self.sink)
        self.value += pushed
        _STATS.augmenting_paths += self.net.augment_paths - before_paths
        _STATS.units_augmented += int(pushed)
        return pushed


# ---------------------------------------------------------------------------
# Bucket-level probers
# ---------------------------------------------------------------------------


class ClassFlowProber:
    """Warm-started feasibility probes over the three-layer bucket network.

    Drop-in for the from-scratch class-flow test: ``probe(counts)``
    answers "can every job finish inside ``counts[i]`` open slots per
    bucket at machine capacity ``g``?" — but builds the network once and
    repairs/augments between probes instead of rebuilding.
    """

    backend = "incremental"

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Sequence[Sequence[int]],
        g: int,
    ) -> None:
        n_jobs = len(processings)
        self._p = list(processings)
        self.total = sum(processings)
        self.g = g
        source = n_jobs + len(buckets)
        sink = source + 1
        # Probes repair and re-augment a few units at a time; the CSR
        # kernel pays a sparse set-up on every augment, the object
        # kernel does not.
        engine = IncrementalFlow(sink + 1, source, sink, kernel="object")
        self._buckets = [list(b) for b in buckets]
        # One bulk append (source edges, then per bucket its job edges
        # and sink edge) — same edge ids as the per-edge loop.
        us: list[int] = [source] * n_jobs
        vs: list[int] = list(range(n_jobs))
        caps: list[float] = list(processings)
        for ci, bucket in enumerate(self._buckets):
            node = n_jobs + ci
            us.extend(bucket)
            vs.extend([node] * len(bucket))
            caps.extend([0] * len(bucket))
            us.append(node)
            vs.append(sink)
            caps.append(0)
        eids = engine.add_edges(us, vs, caps)
        self._job_edges: list[list[int]] = []
        self._sink_edges: list[int] = []
        at = n_jobs
        for bucket in self._buckets:
            self._job_edges.append(eids[at : at + len(bucket)])
            at += len(bucket)
            self._sink_edges.append(eids[at])
            at += 1
        self._counts = [0] * len(buckets)
        # Cut bookkeeping for O(1) infeasibility rejects: total sink
        # capacity, per-job slot room, and how many jobs lack room.
        self._sink_total = 0
        self._room = [0] * n_jobs
        self._deficient = sum(1 for p in self._p if p > 0)
        self.engine = engine
        self._probed = False

    def probe(self, counts: Sequence[int]) -> bool:
        """Feasibility of the count vector; warm-starts from the last probe."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)} bucket counts, "
                f"got {len(counts)}"
            )
        engine = self.engine
        _STATS.probes += 1
        if self._probed:
            _STATS.rebuilds_avoided += 1
        self._probed = True
        room, p = self._room, self._p
        for ci, c in enumerate(counts):
            c = max(0, c)
            dc = c - self._counts[ci]
            if dc == 0:
                continue
            for eid in self._job_edges[ci]:
                engine.set_capacity(eid, c)
            engine.set_capacity(self._sink_edges[ci], self.g * c)
            self._sink_total += self.g * dc
            for k in self._buckets[ci]:
                before = room[k]
                room[k] = before + dc
                if before < p[k] <= room[k]:
                    self._deficient -= 1
                elif room[k] < p[k] <= before:
                    self._deficient += 1
            self._counts[ci] = c
        # Exact cut-based rejects (the reference answers False in both
        # cases too): the sink cut caps the flow at Σ g·c(i); the cut
        # isolating a single job caps it at Σp − p_j + Σ_{i∋j} c(i).
        if self._sink_total < self.total or self._deficient:
            return False
        # Source capacities sum to `total`, so value never exceeds it;
        # when it already matches, the flow is maximum and feasible.
        if engine.value < self.total:
            engine.augment()
        return engine.value == self.total


class DynamicFlowProber:
    """Warm-started job↔slot feasibility network with a *mutable job side*.

    :class:`ClassFlowProber` answers ``probe(counts)`` for a fixed job
    set over fixed buckets; the rescheduling twin
    (:mod:`repro.twin.session`) needs the dual: the open-slot set changes
    one slot at a time *and* the job set itself mutates — jobs arrive,
    cancel, slip their windows, and shrink as executed work is committed.
    This network keeps one bucket per concrete slot::

        source --rem_j--> job j --1--> slot t --g·[open(t)]--> sink

    so every session mutation is a handful of
    :meth:`IncrementalFlow.set_capacity` calls on one long-lived engine:

    * opening/closing a slot touches exactly one slot→sink edge
      (repair cancels ≤ ``g`` units, re-augmentation pushes ≤ ``g``);
    * a job arrival appends one node plus its window edges
      (:meth:`IncrementalFlow.add_node` — no rebuild);
    * a cancellation zeroes the job's source edge (repair cancels its
      remaining volume) and its window edges;
    * committing an executed slot removes its flow and the matching
      source capacity in lock-step, leaving the invariant
      ``value == total`` untouched.

    Feasibility is ``value == total`` after re-augmentation, exactly the
    slot-level reference semantics of
    :func:`repro.flow.feasibility.slot_feasible` on the open slots; the
    twin's differential mode cross-checks every verdict against that
    from-scratch path.
    """

    backend = "incremental"

    def __init__(self, g: int, start: int, end: int) -> None:
        if g < 1:
            raise ValueError(f"capacity g must be >= 1, got {g}")
        if end < start:
            raise ValueError(f"empty slot range [{start},{end})")
        self.g = g
        self.start = start
        self.end = start  # grown below (and on demand) via _ensure_slot
        self.total = 0
        # The twin's workload is add_node/drop_edge-heavy with tiny
        # per-event repairs; the object kernel's eager adjacency lists
        # win there, and pinning it keeps replay flows deterministic.
        engine = IncrementalFlow(2, 0, 1, kernel="object")
        self.engine = engine
        self._slot_node: dict[int, int] = {}
        self._slot_sink: dict[int, int] = {}  # slot -> slot→sink edge id
        self._slot_edges: dict[int, list[tuple[int, int]]] = {}
        self._open: set[int] = set()
        self._committed: set[int] = set()
        self._jobs: dict[int, dict] = {}
        self._probed = False
        for t in range(start, end):
            self._ensure_slot(t)

    # -- slot side ---------------------------------------------------------

    def _ensure_slot(self, t: int) -> int:
        """Node id for slot ``t``, materializing the slot on demand."""
        node = self._slot_node.get(t)
        if node is None:
            if t < self.start:
                raise ValueError(
                    f"slot {t} precedes the network start {self.start}"
                )
            node = self.engine.add_node()
            self._slot_node[t] = node
            self._slot_sink[t] = self.engine.add_edge(node, 1, 0)
            self._slot_edges[t] = []
            self.end = max(self.end, t + 1)
        return node

    def open_slots(self) -> set[int]:
        """The currently open (sink-capacitated) slots."""
        return set(self._open)

    def set_open(self, t: int, is_open: bool) -> None:
        """Open or close slot ``t`` — a single sink-edge mutation."""
        if is_open and t in self._committed:
            raise ValueError(f"slot {t} is committed history; cannot reopen")
        self._ensure_slot(t)
        if is_open == (t in self._open):
            return
        self.engine.set_capacity(self._slot_sink[t], self.g if is_open else 0)
        (self._open.add if is_open else self._open.discard)(t)

    # -- job side ----------------------------------------------------------

    def add_job(
        self, handle: int, remaining: int, release: int, deadline: int
    ) -> None:
        """Admit a job node with ``remaining`` units and window ``[r, d)``."""
        if handle in self._jobs:
            raise ValueError(f"job handle {handle} already present")
        if remaining < 0:
            raise ValueError(f"negative remaining work {remaining}")
        node = self.engine.add_node()
        source_eid = self.engine.add_edge(0, node, remaining)
        record = {
            "node": node,
            "source": source_eid,
            "remaining": remaining,
            "window": (release, deadline),
            "edges": {},
        }
        self._jobs[handle] = record
        self.total += remaining
        self._set_window_edges(handle, release, deadline)

    def _set_window_edges(self, handle: int, release: int, deadline: int) -> None:
        record = self._jobs[handle]
        edges: dict[int, int] = record["edges"]
        for t, eid in edges.items():
            inside = release <= t < deadline
            if self.engine.capacity(eid) != (1 if inside else 0):
                self.engine.set_capacity(eid, 1 if inside else 0)
        for t in range(release, deadline):
            if t not in edges and t not in self._committed:
                node = self._ensure_slot(t)
                eid = self.engine.add_edge(record["node"], node, 1)
                edges[t] = eid
                self._slot_edges[t].append((handle, eid))
        record["window"] = (release, deadline)

    def set_window(self, handle: int, release: int, deadline: int) -> None:
        """Move/resize a job's window (slips repair any stranded flow)."""
        self._set_window_edges(handle, release, deadline)

    def set_remaining(self, handle: int, remaining: int) -> None:
        """Rebase a job's outstanding volume (source-edge capacity)."""
        if remaining < 0:
            raise ValueError(f"negative remaining work {remaining}")
        record = self._jobs[handle]
        self.engine.set_capacity(record["source"], remaining)
        self.total += remaining - record["remaining"]
        record["remaining"] = remaining

    def remove_job(self, handle: int) -> None:
        """Cancel a job: repair away its flow and detach it entirely.

        Zeroing the source edge cancels the job's volume; each window
        edge is then flow-free and physically dropped from the adjacency
        lists, so the node is isolated and later probes never scan it —
        the live network tracks the live job set.
        """
        record = self._jobs[handle]
        self.set_remaining(handle, 0)
        for t, eid in record["edges"].items():
            if self.engine.capacity(eid) != 0:
                self.engine.set_capacity(eid, 0)
            self.engine.drop_edge(eid)
            self._slot_edges[t].remove((handle, eid))
        self.engine.drop_edge(record["source"])
        del self._jobs[handle]

    def jobs(self) -> list[int]:
        """Handles of the jobs currently in the network."""
        return sorted(self._jobs)

    def remaining(self, handle: int) -> int:
        return self._jobs[handle]["remaining"]

    def window(self, handle: int) -> tuple[int, int]:
        return self._jobs[handle]["window"]

    # -- committing executed work -----------------------------------------

    def commit_slot(self, t: int) -> list[int]:
        """Execute the current plan at slot ``t`` and freeze the slot.

        Returns the handles that ran (one unit each, per the current
        flow), closes the slot permanently, and decrements the runners'
        remaining volume so ``value == total`` is preserved — committing
        never needs a re-augmentation.
        """
        if t in self._committed:
            raise ValueError(f"slot {t} already committed")
        ran = self.slot_jobs(t)
        self.set_open(t, False)  # cancels exactly the flow through t
        self._committed.add(t)
        for handle in ran:
            self.set_remaining(handle, self._jobs[handle]["remaining"] - 1)
        # Frozen slots never carry flow again: detach the slot's edges so
        # probes over the rest of the session stop scanning them.
        for handle, eid in self._slot_edges[t]:
            if self.engine.capacity(eid) != 0:
                self.engine.set_capacity(eid, 0)
            self.engine.drop_edge(eid)
            del self._jobs[handle]["edges"][t]
        self._slot_edges[t] = []
        self.engine.drop_edge(self._slot_sink[t])
        return ran

    # -- probing and extraction -------------------------------------------

    def probe(self) -> bool:
        """Feasibility of the current (jobs, windows, open slots) state."""
        _STATS.probes += 1
        if self._probed:
            _STATS.rebuilds_avoided += 1
        self._probed = True
        engine = self.engine
        if engine.value < self.total:
            engine.augment()
        return engine.value == self.total

    def job_slots(self, handle: int) -> list[int]:
        """Slots the current flow assigns to ``handle``, sorted."""
        record = self._jobs[handle]
        # Hot path (read once per job per event by the twin): read the
        # flow straight off the arrays instead of through two wrappers.
        net = self.engine.net
        icap, cap = net._initial_cap, net.cap
        return sorted(
            t for t, eid in record["edges"].items()
            if icap[eid] - cap[eid] > 0.5
        )

    def slot_jobs(self, t: int) -> list[int]:
        """Handles the current flow runs at slot ``t``, sorted."""
        net = self.engine.net
        icap, cap = net._initial_cap, net.cap
        return sorted(
            handle
            for handle, eid in self._slot_edges.get(t, ())
            if icap[eid] - cap[eid] > 0.5
        )

    def assignment(self) -> dict[int, list[int]]:
        """Per-job slot lists of the current flow (valid after a True probe)."""
        return {handle: self.job_slots(handle) for handle in self._jobs}


class ReferenceFlowProber:
    """The pre-engine behaviour: fresh network + from-scratch solve."""

    backend = "reference"

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Sequence[Sequence[int]],
        g: int,
    ) -> None:
        self.processings = list(processings)
        self.buckets = [list(b) for b in buckets]
        self.g = g
        self.total = sum(processings)

    def probe(self, counts: Sequence[int]) -> bool:
        _STATS.reference_probes += 1
        return reference_probe(
            self.processings, self.buckets, self.g, counts
        )


class DifferentialFlowProber:
    """Run *both* probers on every probe; scream on any disagreement.

    The fuzz campaigns and the E15 agreement sweep pin this backend so a
    flow-repair bug can never hide behind a plausible verdict.
    """

    backend = "differential"

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Sequence[Sequence[int]],
        g: int,
    ) -> None:
        self.incremental = ClassFlowProber(processings, buckets, g)
        self.reference = ReferenceFlowProber(processings, buckets, g)
        self.probes = 0

    def probe(self, counts: Sequence[int]) -> bool:
        fast = self.incremental.probe(counts)
        slow = self.reference.probe(counts)
        self.probes += 1
        if fast != slow:
            raise FlowMismatchError(
                f"incremental={fast} vs reference={slow} on counts "
                f"{tuple(counts)} (g={self.reference.g})",
                counts=tuple(counts),
                incremental=fast,
                reference=slow,
            )
        return fast


def reference_probe(
    processings: Sequence[int],
    buckets: Sequence[Sequence[int]],
    g: int,
    counts: Sequence[int],
) -> bool:
    """One from-scratch feasibility test (the Lemma 4.1 aggregation).

    This *is* the reference semantics the incremental engine must match:
    buckets with a non-positive count contribute no edges at all.
    """
    n_jobs = len(processings)
    source = n_jobs + len(buckets)
    sink = source + 1
    net = MaxFlow(sink + 1)
    total = 0
    for k, p in enumerate(processings):
        net.add_edge(source, k, p)
        total += p
    for ci, bucket in enumerate(buckets):
        if counts[ci] <= 0:
            continue
        node = n_jobs + ci
        for k in bucket:
            net.add_edge(k, node, counts[ci])
        net.add_edge(node, sink, g * counts[ci])
    return net.max_flow(source, sink) == total


_PROBERS = {
    "incremental": ClassFlowProber,
    "reference": ReferenceFlowProber,
    "differential": DifferentialFlowProber,
}


def make_prober(
    processings: Sequence[int],
    buckets: Sequence[Sequence[int]],
    g: int,
    *,
    backend: str | None = None,
):
    """Build a feasibility prober for the given bucket network.

    ``backend`` overrides the process-wide selection (see
    :func:`set_flow_backend`); ``None`` uses the active backend.
    """
    name = backend or get_flow_backend()
    try:
        cls = _PROBERS[name]
    except KeyError:
        raise ValueError(
            f"backend {name!r} not one of {FLOW_BACKENDS}"
        ) from None
    return cls(processings, buckets, g)
