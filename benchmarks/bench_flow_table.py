"""Flow-table footprint gate: zero-object end-to-end evaluation at
10^6 flows.

The fluid solver takes one workload form, a struct-of-arrays
``PathPool``/``FlowTable`` whose pool rows become the solver's
commodities.  This benchmark times raw demand arrays to per-flow rates
on a 10^6-flow continental workload (table build + ``solve_fluid``:
problem setup, progressive fill, latency and link-load accounting) and
gates the footprint: peak RSS after the build and solve stays under
2 GiB.  The timing and peak RSS go to ``benchmarks/results/`` and
stdout.
"""

import resource
import time

import numpy as np

from repro.netsim import FlowTable, FluidNetwork, PathPool, solve_fluid

from _support import report

#: Acceptance threshold (see module docstring).
MAX_PEAK_RSS_BYTES = 2 * 1024**3

#: Million-flow workload shape: single-homed metros behind a core mesh,
#: so paths collapse to one commodity per metro pair and the front-end
#: (not the fill loop) dominates end-to-end time.
N_CORE = 24
N_METRO = 240
N_FLOWS = 1_000_000
N_TIERS = 256
MEAN_DEMAND_BPS = 2e6
SEED = 11


def build_raw_million_flow_demands():
    """The raw workload as plain arrays: (src metro, dst metro, demand).

    The benchmark measures everything downstream of these arrays.
    """
    rng = np.random.default_rng(SEED)
    raw = (rng.pareto(1.3, size=N_FLOWS) + 1.0) * MEAN_DEMAND_BPS
    tier_rates = np.quantile(raw, np.linspace(0, 1, N_TIERS + 1)[1:])
    demands = tier_rates[
        np.searchsorted(tier_rates, raw).clip(max=N_TIERS - 1)
    ]
    src = rng.integers(0, N_METRO, size=N_FLOWS)
    dst = rng.integers(0, N_METRO, size=N_FLOWS)
    dst = np.where(src == dst, (dst + 1) % N_METRO, dst)
    return src, dst, demands


def million_flow_network():
    cores = [f"core{i}" for i in range(N_CORE)]
    capacities = {}
    for i, u in enumerate(cores):
        for v in cores[i + 1:]:
            capacities[(u, v)] = 40e9
            capacities[(v, u)] = 40e9
    home = [cores[m % N_CORE] for m in range(N_METRO)]
    for m in range(N_METRO):
        metro = f"metro{m}"
        capacities[(metro, home[m])] = 10e9
        capacities[(home[m], metro)] = 10e9
    return home, capacities


def million_flow_table(src, dst, demands, home):
    """Raw arrays -> one pool row per metro pair and a flow table."""
    pair_code = src * N_METRO + dst
    seen = np.zeros(N_METRO * N_METRO, dtype=bool)
    seen[pair_code] = True
    unique_codes = np.flatnonzero(seen)
    path_id = (np.cumsum(seen) - 1)[pair_code]
    u_src, u_dst = np.divmod(unique_codes, N_METRO)
    paths = []
    for s, d in zip(u_src.tolist(), u_dst.tolist()):
        hs, hd = home[s], home[d]
        inner = (hs,) if hs == hd else (hs, hd)
        paths.append((f"metro{s}",) + inner + (f"metro{d}",))
    pool = PathPool.from_paths(paths)
    return FlowTable(
        pool=pool,
        path_id=path_id,
        demand_bps=demands,
        flow_ids=np.arange(N_FLOWS, dtype=np.int64),
    )


def table_path_end_to_end(src, dst, demands, home, capacities):
    """Raw arrays -> rates, never materializing per-flow objects."""
    table = million_flow_table(src, dst, demands, home)
    return solve_fluid(FluidNetwork(capacities), table).rates_bps


def run_footprint_gate(timing_rounds: int = 3):
    home, capacities = million_flow_network()
    src, dst, demands = build_raw_million_flow_demands()

    table_times = []
    table_rates = None
    for _ in range(timing_rounds):
        t0 = time.perf_counter()
        table_rates = table_path_end_to_end(
            src, dst, demands, home, capacities
        )
        table_times.append(time.perf_counter() - t0)
    table_s = float(np.median(table_times))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "n_links": len(capacities),
        "n_flows": N_FLOWS,
        "n_commodities": len(np.unique(src * N_METRO + dst)),
        "table_s": table_s,
        "carried_fraction": float(table_rates.sum() / demands.sum()),
        "peak_rss_bytes": peak_rss,
    }


def bench_flow_table():
    scale = run_footprint_gate()

    rows = [
        f"workload: {scale['n_flows']} flows "
        f"({scale['n_commodities']} pair commodities) over "
        f"{scale['n_links']} directed links, saturated "
        f"(carried {scale['carried_fraction']:.1%} of offered)",
        f"array-native table, front-end + solve: {scale['table_s']:.3f} s",
        f"peak RSS after table path: "
        f"{scale['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"(bar {MAX_PEAK_RSS_BYTES / 1024**3:.0f} GiB)",
    ]
    assert scale["peak_rss_bytes"] <= MAX_PEAK_RSS_BYTES, (
        f"table-path peak RSS {scale['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"exceeds the {MAX_PEAK_RSS_BYTES / 1024**3:.0f} GiB ceiling"
    )
    report("flow_table", rows)


if __name__ == "__main__":
    bench_flow_table()
