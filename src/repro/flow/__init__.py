"""Max-flow substrate and flow-based feasibility tests."""

from repro.flow.assignment import schedule_from_node_counts, spread_units
from repro.flow.csr import (
    FLOW_KERNELS,
    CSRMaxFlow,
    flow_network,
    get_flow_kernel,
    set_flow_kernel,
)
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import (
    all_slots_feasible,
    elementary_segments,
    extract_schedule,
    node_assignment,
    node_feasible,
    node_prober,
    slot_feasible,
)
from repro.flow.incremental import (
    FLOW_BACKENDS,
    ClassFlowProber,
    DifferentialFlowProber,
    DynamicFlowProber,
    FlowMismatchError,
    IncrementalFlow,
    ReferenceFlowProber,
    flow_stats,
    flow_stats_delta,
    get_flow_backend,
    make_prober,
    render_flow_stats,
    reset_flow_stats,
    set_flow_backend,
)

__all__ = [
    "MaxFlow",
    "CSRMaxFlow",
    "FLOW_KERNELS",
    "flow_network",
    "get_flow_kernel",
    "set_flow_kernel",
    "slot_feasible",
    "extract_schedule",
    "all_slots_feasible",
    "elementary_segments",
    "node_feasible",
    "node_assignment",
    "node_prober",
    "spread_units",
    "schedule_from_node_counts",
    "IncrementalFlow",
    "ClassFlowProber",
    "DynamicFlowProber",
    "ReferenceFlowProber",
    "DifferentialFlowProber",
    "FlowMismatchError",
    "FLOW_BACKENDS",
    "make_prober",
    "get_flow_backend",
    "set_flow_backend",
    "flow_stats",
    "flow_stats_delta",
    "reset_flow_stats",
    "render_flow_stats",
]
