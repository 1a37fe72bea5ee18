"""Weather: precipitation fields, rain attenuation, failures, traces."""

from .attenuation import (
    CriticalRainRates,
    critical_rain_rates,
    effective_path_km,
    hop_fails,
    path_attenuation_db,
    path_attenuation_db_many,
    rain_coefficients,
    specific_attenuation_db_per_km,
)
from .degradation import (
    GradedComparison,
    graded_capacity_fraction,
    graded_yearly_comparison,
    weather_stage_records,
)
from .evaluation import (
    LinkHopArrays,
    YearlyStretchResult,
    YearlyWeatherEvaluator,
    link_hop_arrays,
    link_hop_segments,
    sample_interval_days,
    strided_interval_days,
)
from .failures import (
    distances_with_failures,
    failed_links,
    yearly_stretch_analysis,
)
from .loss_traces import (
    MINUTES_PER_TRADING_DAY,
    PAPER_TRACE_MINUTES,
    LossTrace,
    synthesize_hft_trace,
)
from .precipitation import (
    DAYS_PER_YEAR,
    EU_CLIMATE,
    US_CLIMATE,
    PrecipitationYear,
    RegionClimate,
    StormCell,
)

__all__ = [
    "GradedComparison",
    "graded_capacity_fraction",
    "graded_yearly_comparison",
    "weather_stage_records",
    "CriticalRainRates",
    "critical_rain_rates",
    "effective_path_km",
    "hop_fails",
    "path_attenuation_db",
    "path_attenuation_db_many",
    "rain_coefficients",
    "specific_attenuation_db_per_km",
    "LinkHopArrays",
    "YearlyStretchResult",
    "YearlyWeatherEvaluator",
    "link_hop_arrays",
    "sample_interval_days",
    "strided_interval_days",
    "distances_with_failures",
    "failed_links",
    "link_hop_segments",
    "yearly_stretch_analysis",
    "DAYS_PER_YEAR",
    "MINUTES_PER_TRADING_DAY",
    "PAPER_TRACE_MINUTES",
    "LossTrace",
    "synthesize_hft_trace",
    "EU_CLIMATE",
    "US_CLIMATE",
    "PrecipitationYear",
    "RegionClimate",
    "StormCell",
]
