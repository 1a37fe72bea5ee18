"""TCP macro-model for the fluid engine (Mathis square-root law).

The packet engine simulates TCP window dynamics per packet; at
million-flow scale the fluid path needs a closed-form stand-in.  The
Mathis et al. (1997) macroscopic model gives a long-lived TCP flow's
throughput from its loss rate and RTT::

    rate = C * MSS * 8 / (RTT * sqrt(p)),   C = sqrt(3/2)

:func:`solve_fluid_tcp` couples that law to the max-min fluid
allocation with a damped fixed point: each flow offers
``min(application_demand, mathis_rate(RTT, p))``, the fluid solver
allocates, and the unserved fraction of the offer feeds back as the
next iterate's loss estimate (floored at :data:`DEFAULT_LOSS_FLOOR`,
the ambient loss a real path always shows).  At the fixed point,
uncongested flows run at the Mathis rate for ambient loss (or their
application demand, whichever is smaller) and congested flows back off
until their offer matches what their bottleneck can carry.

RTTs are static: twice the fluid engine's one-way path latency
(propagation plus one serialization per hop); queueing delay is not
modelled, consistent with the rest of the fluid abstraction.
"""

from __future__ import annotations

import math

import numpy as np

from .fluid import FluidNetwork, FluidResult, solve_fluid
from .flowtable import FlowTable
from .tcp import DEFAULT_MSS_BYTES

#: The Mathis constant sqrt(3/2) (periodic-loss model, delayed ACKs off).
MATHIS_C = math.sqrt(1.5)

#: Ambient loss rate assumed on uncongested paths.  Also the floor the
#: fixed point can never drop below (p -> 0 would send the Mathis rate
#: to infinity).
DEFAULT_LOSS_FLOOR = 1e-4

#: Fixed-point iterates after the first solve at the application demands.
ITERATIONS = 25

#: Fraction of the way each iterate moves a loss estimate toward its
#: target.
DAMPING = 0.5

#: The fixed point stops once no loss estimate moves by this much.
TOLERANCE = 1e-6


def solve_fluid_tcp(network: FluidNetwork, flows: FlowTable) -> FluidResult:
    """Fluid allocation under the Mathis TCP macro-model.

    ``flows`` carry the *application* demand (an upper bound on what
    each flow would send).  The realized offer is capped by the Mathis
    rate (``DEFAULT_MSS_BYTES`` segments) at the flow's current loss
    estimate, and the loss estimate relaxes toward the unserved fraction
    of the offer under :data:`DAMPING` until it moves less than
    :data:`TOLERANCE` (or :data:`ITERATIONS` runs out).  Each iterate
    re-demands the fixed table (:meth:`FlowTable.with_demands`) and
    calls :func:`solve_fluid` once, over the one network.

    Returns the final result; its ``offered_bps`` are the converged TCP
    offers, so ``loss_rate`` reports the unserved share of what TCP
    actually attempted, not of the application demand.
    """
    if flows.n_flows == 0:
        return solve_fluid(network, flows)

    # One solve at the application demands fixes the (static) RTTs.
    base = solve_fluid(network, flows)
    rtt = 2.0 * base.latencies_s
    if np.any(rtt <= 0):
        raise ValueError("RTT must be positive")

    demand = flows.demand_bps
    p = np.full(len(demand), DEFAULT_LOSS_FLOOR, dtype=float)
    mathis_num = MATHIS_C * DEFAULT_MSS_BYTES * 8
    result = base
    for _ in range(ITERATIONS):
        offers = np.minimum(demand, mathis_num / (rtt * np.sqrt(p)))
        result = solve_fluid(network, flows.with_demands(offers))
        offered = result.offered_bps
        with np.errstate(divide="ignore", invalid="ignore"):
            dropped = np.where(
                offered > 0, 1.0 - result.rates_bps / offered, 0.0
            )
        target = np.maximum(DEFAULT_LOSS_FLOOR, dropped)
        move = DAMPING * (target - p)
        p += move
        if float(np.abs(move).max(initial=0.0)) < TOLERANCE:
            break
    return result
