"""Cost-benefit analysis (paper §8).

Lower-bound value-per-GB estimates for three application areas, computed
from the paper's cited industry figures, for comparison against cISP's
~$0.81/GB amortized cost:

* Web search:  $1.84 ($3.74) per GB for a 200 ms (400 ms) speedup;
* E-commerce:  $3.26-$22.82 per GB at a 200 ms speedup with <10% of
  bytes carried on cISP;
* Gaming:      >= $3.7 per GB, from accelerated-VPN price points.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds per year.
_SECONDS_PER_YEAR = 365.25 * 86_400


def _gb_per_year(traffic_gbps: float) -> float:
    if traffic_gbps <= 0:
        raise ValueError("traffic must be positive")
    return traffic_gbps / 8.0 * _SECONDS_PER_YEAR


@dataclass(frozen=True)
class ValueEstimate:
    """A value-per-GB estimate with its inputs.

    Attributes:
        label: scenario name.
        low_usd_per_gb / high_usd_per_gb: the estimate range.
    """

    label: str
    low_usd_per_gb: float
    high_usd_per_gb: float

    def exceeds_cost(self, cost_per_gb: float) -> bool:
        """Does even the low estimate beat the network's cost?"""
        return self.low_usd_per_gb > cost_per_gb


def web_search_value(
    yearly_profit_gain_200ms_usd: float = 87e6,
    yearly_profit_gain_400ms_usd: float = 177e6,
    search_traffic_gbps: float = 12.0,
) -> ValueEstimate:
    """Google search speedup value (paper: $1.84-$3.74 per GB).

    The paper combines Google's 400 ms -> -0.7% searches sensitivity,
    US search revenue, search volume, and data per search into added
    yearly profit for speeding up 12 Gbps of US search traffic.
    """
    gb = _gb_per_year(search_traffic_gbps)
    return ValueEstimate(
        label="web-search",
        low_usd_per_gb=yearly_profit_gain_200ms_usd / gb,
        high_usd_per_gb=yearly_profit_gain_400ms_usd / gb,
    )


def ecommerce_value(
    yearly_profit_usd: float = 7.9e9,
    conversion_sensitivity_per_100ms: tuple[float, float] = (0.01, 0.07),
    speedup_ms: float = 200.0,
    yearly_traffic_pb: float = 483.0,
    cisp_byte_fraction: float = 0.10,
) -> ValueEstimate:
    """Amazon-style e-commerce value (paper: $3.26-$22.82 per GB).

    Profit gain = profits x sensitivity x (speedup / 100 ms); value per
    *cISP* GB divides by only the fraction of bytes cISP must carry
    (§7.2: a 200 ms PLT saving needs <10% of page bytes on cISP).
    """
    if not 0 < cisp_byte_fraction <= 1:
        raise ValueError("byte fraction must be in (0, 1]")
    lo_sens, hi_sens = conversion_sensitivity_per_100ms
    factor = speedup_ms / 100.0
    gb_on_cisp = yearly_traffic_pb * 1e6 * cisp_byte_fraction
    return ValueEstimate(
        label="e-commerce",
        low_usd_per_gb=yearly_profit_usd * lo_sens * factor / gb_on_cisp,
        high_usd_per_gb=yearly_profit_usd * hi_sens * factor / gb_on_cisp,
    )


def gaming_value(
    vpn_price_usd_per_month: float = 4.0,
    hours_per_day: float = 8.0,
    rate_kbps: float = 10.0,
) -> ValueEstimate:
    """Accelerated-VPN-anchored gaming value (paper: >= $3.7 per GB).

    A full-time gamer at ``rate_kbps`` moves ~1.08 GB/month; dividing a
    cheap VPN subscription by that volume lower-bounds the per-GB value.
    The upper bound uses the paper's $10/month VPN price point.
    """
    if hours_per_day <= 0 or hours_per_day > 24:
        raise ValueError("hours per day must be in (0, 24]")
    gb_per_month = rate_kbps * 1000 / 8 * hours_per_day * 3600 * 30.44 / 1e9
    return ValueEstimate(
        label="gaming",
        low_usd_per_gb=vpn_price_usd_per_month / gb_per_month,
        high_usd_per_gb=10.0 / gb_per_month,
    )


def all_estimates() -> list[ValueEstimate]:
    """The paper's three §8 scenarios with default inputs."""
    return [web_search_value(), ecommerce_value(), gaming_value()]


def econ_records(cost_per_gb: float = 0.81) -> list[dict]:
    """The §8 table as tidy records (the econ stage): one row per scenario."""
    return [
        {
            "stage": "econ",
            "scenario": est.label,
            "cost_per_gb": float(cost_per_gb),
            "low_usd_per_gb": float(est.low_usd_per_gb),
            "high_usd_per_gb": float(est.high_usd_per_gb),
            "justifies": bool(est.exceeds_cost(cost_per_gb)),
        }
        for est in all_estimates()
    ]

