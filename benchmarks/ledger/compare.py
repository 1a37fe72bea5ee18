"""Compare two ledger run records, metric by metric.

Usage::

    python benchmarks/ledger/compare.py PARENT CHANGE

Each side is a run record written by ``ledger.py``, or a directory of
them whose samples are pooled in file-name order (so that runs made
alternately, parent then change, can be compared pair by pair).

For each workload and end-to-end metric it prints both medians and
IQRs, the paired win fraction (sample i of the change against sample i
of the parent; ties count for neither) and a verdict:

* ``improved``: there are at least ten pairs, the change wins at least
  9/10 of them, and its median beats the parent's by more than the
  parent's IQR;
* ``unresolved``: the spread (IQR / median) of either side exceeds the
  metric's bound, unless every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Count-valued
per-layer metrics and record digests that differ are listed after the
table.  Exits 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ledger import ROOT, stat
WIN_SHARE = 0.9
MIN_PAIRS = 10
COUNT_UNITS = ("count", "bytes", "ratio")


def load_side(path: Path) -> dict:
    """Pooled samples, first record's layers, and every digest."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    side = {"samples": {}, "layers": {}, "digests": {}}
    for file in files:
        record = json.loads(file.read_text())
        for name, runs in record["samples"].items():
            side["samples"].setdefault(name, []).extend(r for r in runs if "crash" not in r)
        for name, layers in record["layers"].items():
            side["layers"].setdefault(name, layers)
        for name, g in record["gates"].items():
            side["digests"].setdefault(name, set()).add(g["digest"])
    if not files:
        raise SystemExit(f"compare: no run records under {path}")
    return side


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR); the IQR of fewer than two values is 0."""
    s = stat(values)
    return s["median"], s["iqr"]


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    """(verdict, paired win fraction) for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    p_med, p_iqr = spread(parent)
    c_med, c_iqr = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    gain = sign * (p_med - c_med)
    improved = len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and gain > p_iqr
    dominates = max(sign * c for c in change) < min(sign * p for p in parent)
    if max(p_iqr / abs(p_med), c_iqr / abs(c_med)) > bound and not dominates:
        return "unresolved", share
    if improved:
        return "improved", share
    if -gain > bound * abs(p_med):
        return "worse", share
    return "unchanged", share


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (load_side(Path(a)) for a in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':<18} {'metric':<13} {'parent':>11} {'p.iqr':>8} {'change':>11} "
          f"{'c.iqr':>8} {'wins':>6}  verdict")
    for name in parent["samples"]:
        if name not in change["samples"]:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [s[key] for s in parent["samples"][name] if key in s]
            c = [s[key] for s in change["samples"][name] if key in s]
            if not p or not c:
                continue
            result, share = verdict(p, c, metric["bound"], metric["better"] == "lower")
            worse += result == "worse"
            (pm, pi), (cm, ci) = spread(p), spread(c)
            print(f"{name:<18} {key:<13} {pm:>11.4f} {pi:>8.4f} {cm:>11.4f} {ci:>8.4f} "
                  f"{share:>6.2f}  {result}")
    print("\ncounts and digests that differ")
    differ = 0
    for name, layers in parent["layers"].items():
        other = change["layers"].get(name, {})
        for key, m in layers.items():
            if m["unit"] in COUNT_UNITS and key in other and other[key]["value"] != m["value"]:
                differ += 1
                print(f"  {name:<18} {key:<52} {m['value']} -> {other[key]['value']}")
    for name, digests in parent["digests"].items():
        other = change["digests"].get(name)
        if other is not None and other != digests:
            differ += 1
            print(f"  {name:<18} digest {sorted(map(str, digests))} -> {sorted(map(str, other))}")
    if not differ:
        print("  none")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
