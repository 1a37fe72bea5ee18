"""E17 — §2: the HFT Chicago-New Jersey relay loss statistics.

The paper's 2,743-minute trace (spanning Hurricane Sandy) shows mean
loss 16.1% but median 1.4% — i.e., microwave loss is overwhelmingly a
rare-event phenomenon.  Reproduced on the synthetic trace.
"""

from repro.weather import synthesize_hft_trace

from _support import report


def bench_sec2_loss_trace():
    trace = synthesize_hft_trace()
    rows = [
        "metric             paper    measured",
        f"minutes            2743     {len(trace.loss_rates)}",
        f"mean loss          16.1%    {trace.mean * 100:.1f}%",
        f"median loss        1.4%     {trace.median * 100:.2f}%",
        f"minutes >10% loss  -        {trace.fraction_above(0.10) * 100:.1f}%",
        "shape: mean >> median (loss concentrates in the hurricane days)",
    ]
    report("sec2_loss_trace", rows)
