"""Event-driven packet-level network simulator (ns-3 substitute)."""

from .engine import Event, Simulator
from .experiments import (
    DEMAND_MODELS,
    ENGINES,
    TRANSPORTS,
    FailureRerouteResult,
    hybrid_routing_graph,
    kept_flow_table,
    run_failure_reroute_experiment,
    run_load_curve,
    build_edge_specs,
)
from .fluid import FluidNetwork, FluidResult, aggregate_capacities, solve_fluid
from .flowtable import FlowTable, PathPool
from .tcpmodel import MATHIS_C, solve_fluid_tcp
from .flows import DEFAULT_UDP_PACKET_BYTES, UdpFlow
from .links import DEFAULT_QUEUE_PACKETS, Link
from .monitor import FlowMonitor, FlowStats, QueueSampler
from .network import EdgeSpec, Network
from .nodes import Node
from .packets import Packet
from .routing import (
    k_shortest_paths,
    mean_route_latency,
    min_max_utilization_routing,
    shortest_path_routing,
    throughput_optimal_routing,
)
from .tcp import DEFAULT_MSS_BYTES, TcpFlow, TcpStats

__all__ = [
    "DEMAND_MODELS",
    "ENGINES",
    "MATHIS_C",
    "TRANSPORTS",
    "Event",
    "FlowTable",
    "FluidNetwork",
    "FluidResult",
    "PathPool",
    "Simulator",
    "aggregate_capacities",
    "hybrid_routing_graph",
    "kept_flow_table",
    "solve_fluid",
    "solve_fluid_tcp",
    "FailureRerouteResult",
    "run_failure_reroute_experiment",
    "run_load_curve",
    "build_edge_specs",
    "DEFAULT_UDP_PACKET_BYTES",
    "UdpFlow",
    "DEFAULT_QUEUE_PACKETS",
    "Link",
    "FlowMonitor",
    "FlowStats",
    "QueueSampler",
    "EdgeSpec",
    "Network",
    "Node",
    "Packet",
    "k_shortest_paths",
    "mean_route_latency",
    "min_max_utilization_routing",
    "shortest_path_routing",
    "throughput_optimal_routing",
    "DEFAULT_MSS_BYTES",
    "TcpFlow",
    "TcpStats",
]
