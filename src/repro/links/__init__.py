"""Step 1: site-to-site microwave link candidates over the tower graph."""

from .builder import (
    SITE_ATTACH_KM,
    CandidateLink,
    LinkCatalog,
    build_link_catalog,
)
from .disjoint import DisjointPath, tower_disjoint_paths

__all__ = [
    "SITE_ATTACH_KM",
    "CandidateLink",
    "LinkCatalog",
    "build_link_catalog",
    "DisjointPath",
    "tower_disjoint_paths",
]
