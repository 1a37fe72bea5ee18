"""E14 — Fig 12: thin-client gaming frame time with speculation + cISP.

Frame time vs conventional-connectivity latency, with and without the
low-latency augmentation (fast path at 1/3 the latency, speculative
frames over fiber).  The augmented curve's slope is ~3x shallower.
"""

import numpy as np

from repro.apps import frame_time_curve

from _support import report

LATENCIES_MS = [0, 50, 100, 150, 200, 250, 300]


def bench_fig12_gaming():
    with_aug = frame_time_curve(LATENCIES_MS, use_augmentation=True, seed=3)
    without = frame_time_curve(LATENCIES_MS, use_augmentation=False, seed=3)
    rows = ["conv_latency_ms  frame_aug_ms  frame_conv_ms"]
    for lat, a, c in zip(LATENCIES_MS, with_aug, without):
        rows.append(
            f"{lat:15d}  {a.mean_frame_time_ms:12.1f}  {c.mean_frame_time_ms:13.1f}"
        )
    # Slopes via least squares over the latency sweep.
    slope_aug = np.polyfit(
        LATENCIES_MS, [p.mean_frame_time_ms for p in with_aug], 1
    )[0]
    slope_conv = np.polyfit(
        LATENCIES_MS, [p.mean_frame_time_ms for p in without], 1
    )[0]
    rows.append(
        f"frame-time slope: augmented {slope_aug:.2f} ms/ms vs conventional "
        f"{slope_conv:.2f} ms/ms (paper: ~3x reduction)"
    )
    report("fig12_gaming", rows)
