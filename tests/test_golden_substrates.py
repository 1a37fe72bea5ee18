"""Golden substrates: one small instance of each scenario family.

``tests/golden/substrates.json`` pins the sha256 of every part of four
substrates built through :func:`repro.scenarios.get_scenario`: the US
with 6 sites, the cities-plus-data-centers deployment with 6 cities,
the inter-DC deployment and Europe, each at its default seed and LoS.
The parts are those of :func:`test_scenarios.substrate_parts`
(registry, hop graph, link catalog) plus the fiber and geodesic
matrices and the site list; the label is kept as text, since it is the
substrate records' ``scenario`` column.

Any change that moves a single bit of these substrates fails here.

Regenerate (only for an intended substrate change) with::

    PYTHONPATH=src python tests/test_golden_substrates.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from test_scenarios import substrate_parts

from repro.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "golden" / "substrates.json"

#: Golden key -> (scenario name, sites).
SUBSTRATES = {
    "us-6": ("us", 6),
    "city_dc-6": ("city_dc", 6),
    "interdc": ("interdc", None),
    "europe": ("europe", None),
}


def substrate_digests() -> dict:
    digests = {}
    for key, (name, sites) in SUBSTRATES.items():
        sc = get_scenario(name, sites=sites)
        parts = substrate_parts(sc.registry, sc.hop_graph, sc.catalog)
        parts["fiber_km"] = sc.fiber_km.tobytes()
        parts["geodesic_km"] = sc.geodesic_km.tobytes()
        parts["sites"] = repr(sc.sites).encode()
        entry = {part: hashlib.sha256(blob).hexdigest() for part, blob in parts.items()}
        entry["name"] = sc.name
        digests[key] = entry
    return digests


def golden_text() -> str:
    return json.dumps(substrate_digests(), indent=1, sort_keys=True) + "\n"


def test_substrates_match_golden_file_exactly():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    text = golden_text()
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
