"""Packet-level experiments over designed cISP topologies (§5, §6.4).

Bridges the design core and the packet simulator: a designed
:class:`~repro.core.topology.Topology` becomes a site-level network
(MW links with their real propagation delays, fiber edges with 1.5x
latency), demands become Poisson UDP flows, and the simulator measures
mean delay and loss as offered load sweeps from 10% to 100% of the
design capacity — the Fig 5 / Fig 11 methodology.

As in the paper, parallel tower hops are aggregated into one site-level
link ("we aggregate the bandwidth of parallel links and remove the
individual tower hops").  We additionally scale all rates down by a
constant factor so packet counts stay laptop-sized; utilizations, and
hence queueing behavior, are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..core.augmentation import route_link_demands, series_needed
from ..core.topology import Topology
from ..geo.coords import SPEED_OF_LIGHT_KM_S
from ..traffic.matrices import user_demand_matrix
from .engine import Simulator
from .fluid import FluidNetwork, solve_fluid
from .flows import UdpFlow
from .flowtable import FlowTable, PathPool
from .monitor import FlowMonitor
from .network import EdgeSpec, Network
from .tcpmodel import solve_fluid_tcp

# The engine/capacity-mode/demand-model/transport lists are owned by
# the (dependency-light) spec module so the spec layer, this package,
# and the CLI validate against one copy.
from ..exp.spec import (  # noqa: E402 - re-exported for callers
    CAPACITY_MODES,
    DEMAND_MODELS,
    ENGINES,
    TRANSPORTS,
)


@dataclass(frozen=True)
class FailureRerouteResult:
    """Outcome of a link-failure + centralized-reroute experiment (§6.1).

    Attributes:
        loss_before: loss rate before the failure.
        loss_during_outage: loss rate between failure and reroute (the
            affected flows black-hole into the dead link).
        loss_after_reroute: loss rate once traffic is recomputed around
            the failure.
        flows_rerouted: how many flows crossed the failed link.
    """

    loss_before: float
    loss_during_outage: float
    loss_after_reroute: float
    flows_rerouted: int


@dataclass(frozen=True)
class UdpExperimentResult:
    """Aggregate outcome of one load point.

    Attributes:
        input_rate_fraction: offered load relative to design capacity.
        mean_delay_ms: mean end-to-end packet delay.
        loss_rate: network-wide packet loss fraction.
        max_link_utilization: highest per-link utilization observed.
    """

    input_rate_fraction: float
    mean_delay_ms: float
    loss_rate: float
    max_link_utilization: float


def build_edge_specs(
    topology: Topology,
    aggregate_gbps: float,
    rate_scale: float = 1e-4,
    queue_packets: int = 200,
    capacity_mode: str = "k2",
) -> list[EdgeSpec]:
    """Site-level edges for a provisioned topology.

    MW links get capacity k^2 Gbps where k covers their routed demand
    (``capacity_mode="k2"``, Step 3's provisioning), or their demand
    rounded up to whole-Gbps series (``"tight"`` — the leaner
    provisioning whose loss onset under load Fig 5 probes); fiber edges
    that the design's routing actually uses appear with generous
    capacity (fiber bandwidth is plentiful in the paper's model).
    ``rate_scale`` uniformly shrinks rates (and thus absolute packet
    counts); utilization at a given offered-load fraction is invariant
    to it.
    """
    if rate_scale <= 0:
        raise ValueError("rate scale must be positive")
    if capacity_mode not in CAPACITY_MODES:
        raise ValueError(
            f"capacity_mode must be one of {', '.join(CAPACITY_MODES)}, "
            f"got {capacity_mode!r}"
        )
    design = topology.design
    demands = route_link_demands(topology, aggregate_gbps)
    routes = topology.routed_paths()
    specs: dict[tuple[int, int], EdgeSpec] = {}
    for link, demand in demands.items():
        a, b = link
        if capacity_mode == "k2":
            k = series_needed(demand)
            capacity_gbps = max(k * k, 1)
        else:
            capacity_gbps = max(float(np.ceil(demand)), 1.0)
        capacity_bps = capacity_gbps * 1e9 * rate_scale
        delay_s = design.mw_km[a, b] / SPEED_OF_LIGHT_KM_S
        specs[link] = EdgeSpec(
            a=str(a),
            b=str(b),
            rate_bps=capacity_bps,
            delay_s=delay_s,
            queue_capacity=queue_packets,
        )
    # Fiber edges used by any route.
    mw = set(demands)
    for path in routes.values():
        for u, v in zip(path[:-1], path[1:]):
            edge = (min(u, v), max(u, v))
            if edge in mw or edge in specs:
                continue
            delay_s = design.fiber_km[edge] / SPEED_OF_LIGHT_KM_S
            specs[edge] = EdgeSpec(
                a=str(edge[0]),
                b=str(edge[1]),
                rate_bps=100e9 * rate_scale,
                delay_s=delay_s,
                queue_capacity=queue_packets,
            )
    return list(specs.values())


def kept_flow_table(
    routes: dict[tuple[int, int], list[int]],
    traffic: np.ndarray,
    node_names: set[str],
    min_flow_rate_fraction: float,
) -> tuple[PathPool, np.ndarray, np.ndarray, float]:
    """Commodities worth simulating, as pool rows and demand shares.

    Drops the long tail of tiny flows (they dominate event count but
    not load) and any route leaving the simulated node set.  Returns
    ``(pool, path_ids, shares, kept_mass)``: the route pool (row ``p``
    is the route of the ``p``-th pair in route-dict order), the kept
    pairs' pool rows in that order, their demand shares, and the kept
    demand mass, for renormalizing rates so the full offered aggregate
    is still injected.
    """
    total_h = np.triu(traffic, k=1).sum()
    pool = PathPool.from_routes(routes, n_sites=traffic.shape[0])
    if pool.n_paths == 0:
        return pool, np.empty(0, np.int64), np.empty(0, float), 0.0
    pairs = np.fromiter(
        (v for pair in routes for v in pair),
        dtype=np.int64,
        count=2 * len(routes),
    ).reshape(-1, 2)
    h = traffic[pairs[:, 0], pairs[:, 1]] / total_h
    allowed = np.fromiter(
        (name in node_names for name in pool.node_names),
        dtype=bool,
        count=len(pool.node_names),
    )
    keep = ~(h < min_flow_rate_fraction) & pool.within_mask(allowed)
    # Sequential sum in kept order, independent of numpy's pairwise sum.
    kept_mass = float(sum(h[keep].tolist()))
    return pool, np.flatnonzero(keep).astype(np.int64), h[keep], kept_mass


@dataclass(frozen=True)
class _ExperimentSetup:
    """Per-load-point invariants of a load sweep, computed once.

    Everything here depends only on the topology, the demand model, and
    the provisioning knobs — not on the load fraction — so a load curve
    derives capacities, routes the demand matrix, and filters the kept
    flows exactly once instead of once per load point.  ``network`` is
    the fluid engine's indexed form of ``specs``; it is built only for
    ``engine="fluid"`` (None for the packet engine).
    """

    specs: list[EdgeSpec]
    network: FluidNetwork | None
    offered_aggregate_gbps: float
    rate_scale: float
    kept_mass: float
    pool: PathPool
    path_ids: np.ndarray
    shares: np.ndarray

    def offered_bps(self, input_rate_fraction: float) -> float:
        return (
            self.offered_aggregate_gbps
            * 1e9
            * self.rate_scale
            * input_rate_fraction
        )


def _validate_experiment_params(
    input_rate_fraction: float,
    engine: str,
    demand_model: str,
    transport: str,
) -> None:
    """The shared argument checks, in their historical order."""
    if not 0 < input_rate_fraction <= 1.5:
        raise ValueError("input rate fraction out of range")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    if demand_model not in DEMAND_MODELS:
        raise ValueError(
            f"unknown demand model {demand_model!r} "
            f"(choose from {DEMAND_MODELS})"
        )
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r} (choose from {TRANSPORTS})"
        )
    if transport == "tcp" and engine != "fluid":
        raise ValueError(
            "transport='tcp' is a fluid-engine macro-model; the packet "
            "engine simulates TCP per-packet via TcpFlow instead"
        )


def _prepare_experiment(
    topology: Topology,
    design_aggregate_gbps: float,
    offered_traffic: np.ndarray | None,
    rate_scale: float,
    min_flow_rate_fraction: float,
    capacity_mode: str,
    demand_model: str,
    demand_hour_utc: float,
    demand_seed: int,
    users_millions: float | None,
    engine: str,
) -> _ExperimentSetup:
    """Build the load-invariant half of an experiment."""
    design = topology.design
    if demand_model == "users":
        if offered_traffic is not None:
            raise ValueError(
                "demand_model='users' builds its own traffic matrix; "
                "it conflicts with an explicit offered_traffic"
            )
        traffic, user_aggregate_gbps = user_demand_matrix(
            list(design.sites),
            hour_utc=demand_hour_utc,
            seed=demand_seed,
            users_millions=users_millions,
        )
        offered_aggregate_gbps = user_aggregate_gbps
    else:
        traffic = (
            offered_traffic if offered_traffic is not None else design.traffic
        )
        offered_aggregate_gbps = design_aggregate_gbps
    specs = build_edge_specs(
        topology,
        design_aggregate_gbps,
        rate_scale=rate_scale,
        capacity_mode=capacity_mode,
    )
    node_names = {spec.a for spec in specs} | {spec.b for spec in specs}
    pool, path_ids, shares, kept_mass = kept_flow_table(
        topology.routed_paths(), traffic, node_names, min_flow_rate_fraction
    )
    if kept_mass <= 0:
        raise ValueError("no flows above the rate cutoff")
    return _ExperimentSetup(
        specs=specs,
        network=FluidNetwork.from_specs(specs) if engine == "fluid" else None,
        offered_aggregate_gbps=offered_aggregate_gbps,
        rate_scale=rate_scale,
        kept_mass=kept_mass,
        pool=pool,
        path_ids=path_ids,
        shares=shares,
    )


def run_udp_experiment(
    topology: Topology,
    design_aggregate_gbps: float,
    input_rate_fraction: float,
    offered_traffic: np.ndarray | None = None,
    duration_s: float = 1.0,
    rate_scale: float = 1e-4,
    min_flow_rate_fraction: float = 2e-4,
    capacity_mode: str = "k2",
    seed: int = 0,
    engine: str = "packet",
    demand_model: str = "design",
    demand_hour_utc: float = 20.0,
    demand_seed: int = 0,
    users_millions: float | None = None,
    transport: str = "udp",
) -> UdpExperimentResult:
    """One Fig 5 / Fig 11 load point.

    Args:
        topology: the designed (and implicitly provisioned) network.
        design_aggregate_gbps: the capacity the network was designed
            for; link capacities derive from routing *design* traffic.
        input_rate_fraction: offered aggregate load as a fraction of
            ``design_aggregate_gbps`` (the x-axis of Fig 5) — or of the
            user-model aggregate under ``demand_model="users"``.
        offered_traffic: traffic matrix actually offered (defaults to
            the design matrix; perturbed/mixed matrices reproduce the
            deviation experiments).  Mutually exclusive with
            ``demand_model="users"``, which builds its own matrix.
        duration_s: simulated seconds (packet engine only).
        rate_scale: uniform rate shrink factor (see module docstring).
        min_flow_rate_fraction: demands below this fraction of the
            total are dropped (they contribute negligible load but
            dominate event count).
        seed: RNG seed for Poisson arrivals (packet engine only).
        engine: ``"packet"`` simulates every packet; ``"fluid"`` solves
            the steady-state max-min rate allocation instead — 1-2
            orders of magnitude faster, no queueing/jitter modelling.
        demand_model: ``"design"`` offers the design (or explicit)
            matrix; ``"users"`` builds offered traffic bottom-up from
            per-city populations (diurnal x heavy-tail, the
            million-user layer in :mod:`repro.traffic.matrices`).
        demand_hour_utc: UTC hour for the diurnal profile (users model).
        demand_seed: heavy-tail multiplier seed (users model).
        users_millions: rescale the user model to this many million
            active users network-wide (users model; None keeps
            population-derived counts).
        transport: ``"udp"`` offers demand open-loop; ``"tcp"`` caps
            each flow at its Mathis macro-model rate and iterates loss
            to a fixed point (fluid engine only).

    Both engines read one kept-flow table (see :func:`kept_flow_table`).
    """
    _validate_experiment_params(
        input_rate_fraction, engine, demand_model, transport
    )
    setup = _prepare_experiment(
        topology,
        design_aggregate_gbps,
        offered_traffic,
        rate_scale,
        min_flow_rate_fraction,
        capacity_mode,
        demand_model,
        demand_hour_utc,
        demand_seed,
        users_millions,
        engine,
    )
    return _run_point(
        setup, input_rate_fraction, engine, transport, duration_s, seed
    )


def _run_point(
    setup: _ExperimentSetup,
    input_rate_fraction: float,
    engine: str,
    transport: str,
    duration_s: float,
    seed: int,
) -> UdpExperimentResult:
    """One load point over already-prepared invariants."""
    kept_mass = setup.kept_mass
    offered_bps = setup.offered_bps(input_rate_fraction)

    if engine == "fluid":
        # Per-flow demands, positivity filter, and flow ids (positions
        # in the kept table) all stay in numpy.
        demands = offered_bps * setup.shares / kept_mass
        positive = demands > 0
        flows = FlowTable(
            pool=setup.pool,
            path_id=setup.path_ids[positive],
            demand_bps=demands[positive],
            flow_ids=np.flatnonzero(positive).astype(np.int64),
        )
        if transport == "tcp":
            result = solve_fluid_tcp(setup.network, flows)
        else:
            result = solve_fluid(setup.network, flows)
        return UdpExperimentResult(
            input_rate_fraction=input_rate_fraction,
            mean_delay_ms=result.mean_latency_s() * 1000.0,
            loss_rate=result.loss_rate,
            max_link_utilization=result.max_link_utilization,
        )

    sim = Simulator()
    net = Network.from_edges(sim, setup.specs)
    monitor = FlowMonitor(sim)
    for link in net.links.values():
        monitor.watch_link(link)
    flow_id = 0
    for path_id, h in zip(setup.path_ids.tolist(), setup.shares.tolist()):
        rate = offered_bps * h / kept_mass
        if rate <= 0:
            continue
        flow = UdpFlow(
            sim,
            net,
            monitor,
            flow_id,
            setup.pool.path_names(path_id),
            rate_bps=rate,
            seed=seed * 100_003 + flow_id,
        )
        flow.start()
        flow_id += 1
    sim.run(until=duration_s)
    max_util = max(
        (link.utilization(duration_s) for link in net.links.values()), default=0.0
    )
    return UdpExperimentResult(
        input_rate_fraction=input_rate_fraction,
        mean_delay_ms=monitor.mean_delay_s() * 1000.0,
        loss_rate=monitor.overall_loss_rate(),
        max_link_utilization=max_util,
    )


def run_load_curve(
    topology: Topology,
    design_aggregate_gbps: float,
    loads: tuple[float, ...] | list[float],
    engine: str = "packet",
    duration_s: float = 0.5,
    seed: int = 0,
    capacity_mode: str = "k2",
    offered_traffic: np.ndarray | None = None,
    demand_model: str = "design",
    demand_hour_utc: float = 20.0,
    demand_seed: int = 0,
    users_millions: float | None = None,
    transport: str = "udp",
) -> list[dict]:
    """The full Fig 5 load curve as tidy records (the netsim stage).

    One :func:`run_udp_experiment` point per load fraction, flattened to
    plain-scalar rows so the orchestration layer can cache, merge, and
    serialize them deterministically.  The load-invariant work — link
    capacities, the routed path pool, the kept-flow filter — is hoisted
    out of the loop and computed once for the whole curve.
    """
    rows: list[dict] = []
    setup: _ExperimentSetup | None = None
    for load in loads:
        # Every load point is validated before it runs; the first one
        # also hoists the invariants.
        _validate_experiment_params(float(load), engine, demand_model, transport)
        if setup is None:
            setup = _prepare_experiment(
                topology,
                design_aggregate_gbps,
                offered_traffic,
                1e-4,
                2e-4,
                capacity_mode,
                demand_model,
                demand_hour_utc,
                demand_seed,
                users_millions,
                engine,
            )
        res = _run_point(
            setup, float(load), engine, transport, duration_s, seed
        )
        rows.append({
            "stage": "netsim",
            "engine": engine,
            "transport": transport,
            "demand_model": demand_model,
            "load": float(load),
            "mean_delay_ms": float(res.mean_delay_ms),
            "loss_rate": float(res.loss_rate),
            "max_link_utilization": float(res.max_link_utilization),
        })
    return rows


def hybrid_routing_graph(topology: Topology) -> nx.Graph:
    """The site-level hybrid graph the experiments route over.

    A thin export of :meth:`Topology.graph_view` — weights come from
    the same :meth:`Topology.hybrid_weight_matrix` behind the design
    objective, so routing here and the design-side routed paths share
    one hybrid model (and one graph kernel).
    """
    return topology.graph_view().to_networkx(weight="latency")


def run_failure_reroute_experiment(
    topology: Topology,
    design_aggregate_gbps: float,
    failed_link: tuple[int, int],
    fail_at_s: float = 0.3,
    reroute_delay_s: float = 0.3,
    duration_s: float = 1.2,
    input_rate_fraction: float = 0.5,
    rate_scale: float = 1e-3,
    min_flow_rate_fraction: float = 2e-4,
    seed: int = 0,
) -> FailureRerouteResult:
    """Fail one MW link mid-run, then reroute around it (§6.1).

    The paper argues weather failures are predictable minutes ahead, so
    "even slow, centralized management would suffice to anticipate
    failures and reroute".  This experiment quantifies the difference:
    packets black-hole between ``fail_at_s`` and the reroute, then flow
    loss returns to its pre-failure level on the recomputed paths.

    Rerouting removes the failed link from the hybrid site graph
    (:func:`hybrid_routing_graph`) and recomputes a latency-shortest
    path for each commodity whose route crossed it; every other
    commodity keeps its route.
    """
    failed_link = (min(failed_link), max(failed_link))
    if failed_link not in topology.mw_links:
        raise ValueError(f"{failed_link} is not a built MW link")
    if not 0 < fail_at_s < fail_at_s + reroute_delay_s < duration_s:
        raise ValueError("need 0 < fail_at < fail_at + reroute_delay < duration")
    design = topology.design
    specs = build_edge_specs(topology, design_aggregate_gbps, rate_scale=rate_scale)

    routes = topology.routed_paths()
    offered_bps = (
        design_aggregate_gbps * 1e9 * rate_scale * input_rate_fraction
    )
    node_names = {s.a for s in specs} | {s.b for s in specs}
    pool, path_ids, shares, kept_mass = kept_flow_table(
        routes, design.traffic, node_names, min_flow_rate_fraction
    )
    # Pool row p is the route of the p-th pair in route-dict order.
    pairs = list(routes)
    kept = [
        (pairs[p], pool.path_names(p), h)
        for p, h in zip(path_ids.tolist(), shares.tolist())
    ]

    def crosses_failed(path: list[int]) -> bool:
        a, b = failed_link
        return any(
            (min(u, v), max(u, v)) == (a, b) for u, v in zip(path[:-1], path[1:])
        )

    # Post-failure routes must avoid the failed *site pair* entirely: in
    # the simulated network the MW link and the (hypothetical) direct
    # fiber between the same pair share one edge, and that edge is down.
    graph = hybrid_routing_graph(topology)
    graph.remove_edge(*failed_link)
    new_routes: dict[tuple[int, int], list[int]] = {}
    for (s, t), _node_path, _h in kept:
        if not crosses_failed(routes[(s, t)]):
            continue
        try:
            new_routes[(s, t)] = nx.shortest_path(graph, s, t, weight="latency")
        except nx.NetworkXNoPath:
            continue
    # The post-failure routing may use fiber edges the original routing
    # did not; add specs for any edge its paths traverse.
    seen = {(s.a, s.b) for s in specs} | {(s.b, s.a) for s in specs}
    for path in new_routes.values():
        for u, v in zip(path[:-1], path[1:]):
            key = (str(min(u, v)), str(max(u, v)))
            if key in seen:
                continue
            edge = (min(u, v), max(u, v))
            specs.append(
                EdgeSpec(
                    a=key[0],
                    b=key[1],
                    rate_bps=100e9 * rate_scale,
                    delay_s=design.fiber_km[edge] / SPEED_OF_LIGHT_KM_S,
                    queue_capacity=200,
                )
            )
            seen.add(key)
            seen.add((key[1], key[0]))
    sim = Simulator()
    net = Network.from_edges(sim, specs)
    monitor = FlowMonitor(sim)
    for link in net.links.values():
        monitor.watch_link(link)

    flows: dict[int, UdpFlow] = {}
    affected: list[tuple[int, tuple[int, int], float]] = []
    flow_id = 0
    for (s, t), node_path, h in kept:
        flow = UdpFlow(
            sim, net, monitor, flow_id, node_path,
            rate_bps=offered_bps * h / kept_mass,
            seed=seed * 7919 + flow_id,
        )
        flow.start()
        flows[flow_id] = flow
        if crosses_failed(routes[(s, t)]):
            affected.append((flow_id, (s, t), h))
        flow_id += 1

    # Window loss accounting via snapshots of monitor totals.
    snapshots: dict[str, tuple[int, int]] = {}

    def snap(label: str) -> None:
        snapshots[label] = (monitor.total_sent, monitor.total_dropped)

    def fail() -> None:
        snap("fail")
        for u, v in ((failed_link[0], failed_link[1]), (failed_link[1], failed_link[0])):
            key = (str(u), str(v))
            if key in net.links:
                net.links[key].set_down()

    next_flow_id = [flow_id]

    def reroute() -> None:
        snap("reroute")
        for fid, (s, t), h in affected:
            flows[fid].stop()
            if (s, t) not in new_routes:
                continue
            path = tuple(str(v) for v in new_routes[(s, t)])
            replacement = UdpFlow(
                sim, net, monitor, next_flow_id[0], path,
                rate_bps=offered_bps * h / kept_mass,
                seed=seed * 104729 + next_flow_id[0],
            )
            replacement.start(at=sim.now)
            next_flow_id[0] += 1

    sim.schedule_at(fail_at_s, fail)
    sim.schedule_at(fail_at_s + reroute_delay_s, reroute)
    sim.run(until=duration_s)
    snap("end")

    def window_loss(a: str, b: str) -> float:
        sent = snapshots[b][0] - snapshots[a][0]
        dropped = snapshots[b][1] - snapshots[a][1]
        return dropped / sent if sent > 0 else 0.0

    snapshots["start"] = (0, 0)
    return FailureRerouteResult(
        loss_before=window_loss("start", "fail"),
        loss_during_outage=window_loss("fail", "reroute"),
        loss_after_reroute=window_loss("reroute", "end"),
        flows_rerouted=len(affected),
    )
