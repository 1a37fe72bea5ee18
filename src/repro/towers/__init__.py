"""Tower infrastructure: synthesis, registry, line-of-sight, hop graph."""

from .acquisition import (
    AcquisitionModel,
    AcquisitionStudy,
    CandidatePath,
    acquisition_study,
    refine_with_confirmations,
    sample_acquisitions,
)
from .hops import HopGraph
from .los import DEFAULT_CLUTTER_M, LosChecker, LosConfig
from .registry import (
    DEFAULT_DENSITY_CAP,
    DEFAULT_MIN_FCC_HEIGHT_M,
    CullingPolicy,
    Tower,
    TowerRegistry,
    cull_towers,
)
from .synthesis import SynthesisConfig, synthesize_towers

__all__ = [
    "AcquisitionModel",
    "AcquisitionStudy",
    "CandidatePath",
    "acquisition_study",
    "refine_with_confirmations",
    "sample_acquisitions",
    "HopGraph",
    "DEFAULT_CLUTTER_M",
    "LosChecker",
    "LosConfig",
    "DEFAULT_DENSITY_CAP",
    "DEFAULT_MIN_FCC_HEIGHT_M",
    "CullingPolicy",
    "Tower",
    "TowerRegistry",
    "cull_towers",
    "SynthesisConfig",
    "synthesize_towers",
]
