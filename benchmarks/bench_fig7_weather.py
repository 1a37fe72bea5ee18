"""E9 — Fig 7: stretch across city pairs over a year of precipitation.

One random interval per day for a year: the 99th-percentile stretch per
pair stays near the fair-weather best, and even the worst weather-hit
stretch is far better than fiber (the paper: worst median 1.7x lower
than fiber's).
"""

import numpy as np

from repro.scenarios import get_scenario
from repro.weather import YearlyWeatherEvaluator, sample_interval_days

from _support import report, us_topology_3000


def _cdf_row(label, values, probes=(0.25, 0.5, 0.75, 0.95)):
    qs = np.quantile(values, probes)
    cells = "  ".join(f"{q:.3f}" for q in qs)
    return f"{label:6s}  {cells}"


def bench_fig7_weather_year():
    scenario = get_scenario("us")
    evaluator = YearlyWeatherEvaluator(
        us_topology_3000(), scenario.catalog, scenario.registry
    )
    result = evaluator.binary_year(sample_interval_days(7, 365))
    rows = [
        "CDF quantiles of per-pair stretch     p25    p50    p75    p95",
        _cdf_row("best", result.best),
        _cdf_row("p99", result.p99),
        _cdf_row("worst", result.worst),
        _cdf_row("fiber", result.fiber),
        "",
        f"median(p99)/median(best): {np.median(result.p99) / np.median(result.best):.3f}"
        "  (paper: ~1, '99th percentile comparable to best')",
        f"median(fiber)/median(worst): {np.median(result.fiber) / np.median(result.worst):.2f}"
        "  (paper: >= 1.7)",
        f"intervals with failures: {(result.links_failed_per_interval > 0).mean():.1%}",
        f"mean links failed/interval: {result.links_failed_per_interval.mean():.2f}",
    ]
    report("fig7_weather", rows)
