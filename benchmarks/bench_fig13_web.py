"""E15 — Fig 13: Web page load times under cISP latency reduction.

80 synthetic pages replayed at baseline RTTs, at 0.33x RTTs ("cISP"),
and with only client-to-server latencies at 0.33x ("cISP-selective").
Paper: median PLT -31%, object load time -49%, small objects -59%,
selective -27% while moving only 8.5% of bytes.
"""

import numpy as np

from repro.apps import compare_corpus, synthesize_pages

from _support import report


def bench_fig13_web():
    pages = synthesize_pages(80, seed=1)
    cmp = compare_corpus(pages)
    rows = [
        "metric                         paper   measured",
        f"median PLT reduction (cISP)    31%     {cmp.median_plt_reduction('cisp') * 100:.0f}%",
        f"median PLT reduction (select)  27%     {cmp.median_plt_reduction('selective') * 100:.0f}%",
        f"median OLT reduction           49%     {cmp.median_olt_reduction() * 100:.0f}%",
        f"small-object OLT reduction     59%     {cmp.median_olt_reduction(small_only=True) * 100:.0f}%",
        f"bytes on cISP (selective)      8.5%    {cmp.upstream_byte_fraction * 100:.1f}%",
        "",
        "PLT CDF quantiles (ms)      p25     p50     p75     p95",
    ]
    for label, values in (
        ("baseline", cmp.baseline_plts),
        ("cISP", cmp.cisp_plts),
        ("selective", cmp.selective_plts),
    ):
        qs = np.quantile(values, [0.25, 0.5, 0.75, 0.95])
        rows.append(
            f"{label:24s} {qs[0]:7.0f} {qs[1]:7.0f} {qs[2]:7.0f} {qs[3]:7.0f}"
        )
    report("fig13_web", rows)
