"""Rain attenuation per ITU-R P.838 (paper §6.1).

The paper computes microwave signal attenuation from precipitation with
the "standard equations in MW engineering" — the ITU-R P.838 power law:

    gamma = k * R^alpha   [dB/km]

where R is the rain rate (mm/h) and (k, alpha) are frequency- and
polarization-dependent coefficients.  Path attenuation applies gamma
over an *effective* path length shorter than the physical hop (rain
cells are finite; ITU-R P.530's distance factor).

A link is treated as failed, in the paper's binary model, when its path
attenuation exceeds the link's fade margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: ITU-R P.838-3 horizontal-polarization coefficients (k_H, alpha_H),
#: a subset of the published table bracketing the paper's 6-18 GHz band.
_COEFFS_H: list[tuple[float, float, float]] = [
    # (frequency GHz, k_H, alpha_H)
    (4.0, 0.0001071, 1.6009),
    (6.0, 0.0017500, 1.3080),
    (7.0, 0.0030100, 1.3320),
    (8.0, 0.0045400, 1.3270),
    (10.0, 0.0121700, 1.2571),
    (12.0, 0.0238600, 1.1825),
    (15.0, 0.0448100, 1.1233),
    (20.0, 0.0916400, 1.0568),
    (25.0, 0.1571000, 0.9991),
    (30.0, 0.2403000, 0.9485),
]


def rain_coefficients(frequency_ghz: float) -> tuple[float, float]:
    """(k, alpha) at ``frequency_ghz``, log-interpolated from the table."""
    freqs = np.array([f for f, _, _ in _COEFFS_H])
    ks = np.array([k for _, k, _ in _COEFFS_H])
    alphas = np.array([a for _, _, a in _COEFFS_H])
    if not freqs[0] <= frequency_ghz <= freqs[-1]:
        raise ValueError(
            f"frequency {frequency_ghz} GHz outside table range "
            f"[{freqs[0]}, {freqs[-1]}]"
        )
    log_f = np.log(frequency_ghz)
    k = float(np.exp(np.interp(log_f, np.log(freqs), np.log(ks))))
    alpha = float(np.interp(log_f, np.log(freqs), alphas))
    return k, alpha


def specific_attenuation_db_per_km(rain_mm_h, frequency_ghz: float = 11.0):
    """gamma = k R^alpha, dB/km.  Accepts scalar or array rain rates."""
    k, alpha = rain_coefficients(frequency_ghz)
    rain = np.asarray(rain_mm_h, dtype=float)
    if np.any(rain < 0):
        raise ValueError("rain rate must be non-negative")
    result = k * np.power(rain, alpha, where=rain > 0, out=np.zeros_like(rain))
    if np.ndim(rain_mm_h) == 0:
        return float(result)
    return result


def effective_path_km(hop_km: float, rain_mm_h: float) -> float:
    """ITU-R P.530 effective path length through rain.

    d_eff = d / (1 + d/d0),  d0 = 35 exp(-0.015 R)  (R capped at 100).
    """
    if hop_km < 0:
        raise ValueError("hop length must be non-negative")
    r = min(max(rain_mm_h, 0.0), 100.0)
    d0 = 35.0 * np.exp(-0.015 * r)
    return float(hop_km / (1.0 + hop_km / d0))


def path_attenuation_db(
    hop_km: float, rain_mm_h: float, frequency_ghz: float = 11.0
) -> float:
    """Total rain attenuation over a hop, dB."""
    gamma = specific_attenuation_db_per_km(rain_mm_h, frequency_ghz)
    return float(gamma * effective_path_km(hop_km, rain_mm_h))


def path_attenuation_db_many(
    hop_km, rain_mm_h, frequency_ghz: float = 11.0
) -> np.ndarray:
    """Vectorized :func:`path_attenuation_db` (broadcasting inputs).

    Elementwise results are bit-identical to the scalar function: the
    exact same IEEE operations run per element, so the yearly analyses
    can swap their per-hop Python loops for one array expression
    without perturbing any failure decision.
    """
    hop = np.asarray(hop_km, dtype=float)
    rain = np.asarray(rain_mm_h, dtype=float)
    if np.any(hop < 0):
        raise ValueError("hop length must be non-negative")
    gamma = specific_attenuation_db_per_km(rain, frequency_ghz)
    # effective_path_km, vectorized (same IEEE ops, elementwise).
    r = np.minimum(np.maximum(rain, 0.0), 100.0)
    d0 = 35.0 * np.exp(-0.015 * r)
    effective = hop / (1.0 + hop / d0)
    return gamma * effective


@dataclass(frozen=True)
class CriticalRainRates:
    """The binary failure rule, inverted into per-hop rain thresholds.

    Path attenuation is *not* monotone in the rain rate: it rises with
    ``gamma = k R^alpha``, but ITU-R P.530's effective-path factor
    shrinks as ``d0 = 35 exp(-0.015 R)`` collapses, so on a long hop
    the product peaks below the R = 100 mm/h cap, *dips* until the cap,
    then rises again (``d0`` frozen, ``gamma`` still growing).  The
    derivative of ``log(attenuation)`` is strictly decreasing in R up
    to the cap and positive beyond it, so the failing set
    ``{R : attenuation(R) > margin}`` is exactly
    ``(rise, dip] ∪ (recovery, inf)`` — three thresholds per hop, all
    bisected to adjacent floats on their monotone segment, so
    :meth:`failed` classifies every representable rain rate exactly as
    the direct rule does.

    Attributes:
        rise: largest rate on the rising segment that does not breach
            (``inf`` when that segment never breaches).
        dip: largest breaching rate in the dip (``inf`` when the dip
            never drops back under the margin, ``-inf`` when nothing
            below the recovery threshold breaches).
        recovery: largest non-breaching rate at/above the 100 mm/h cap
            (``inf`` when the margin holds up to ``max_rain_mm_h``).
    """

    rise: np.ndarray
    dip: np.ndarray
    recovery: np.ndarray

    def failed(self, rain_mm_h) -> np.ndarray:
        """Elementwise: does this rain rate breach the fade margin?"""
        rain = np.asarray(rain_mm_h, dtype=float)
        return ((rain > self.rise) & (rain <= self.dip)) | (
            rain > self.recovery
        )


def _bisect_breach_boundary(hop, frequency_ghz, margin, lo, hi):
    """Adjacent-float boundary of ``attenuation > margin`` on a segment.

    Elementwise over hops; the attenuation must be monotone between
    ``lo`` (not breaching) and ``hi`` (breaching) — the caller orients
    the segment, so numerically ``lo`` may sit on either side of
    ``hi``.  Returns ``(lo, hi)`` narrowed until no representable
    float lies strictly between them (midpoint rounds onto an
    endpoint).  Lanes whose endpoints violate the predicate are
    harmless — their result is discarded by the caller.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        converged = (mid == lo) | (mid == hi)
        if converged.all():
            break
        breach = path_attenuation_db_many(hop, mid, frequency_ghz) > margin
        hi = np.where(~converged & breach, mid, hi)
        lo = np.where(~converged & ~breach, mid, lo)
    return lo, hi


def critical_rain_rates(
    hop_km,
    fade_margin_db: float = 30.0,
    frequency_ghz: float = 11.0,
    max_rain_mm_h: float = 1000.0,
) -> CriticalRainRates:
    """Invert the fade margin into per-hop :class:`CriticalRainRates`.

    The failure rule ``path_attenuation_db(hop, R) > margin`` becomes
    the vectorized comparison :meth:`CriticalRainRates.failed` with no
    attenuation evaluation per day.  Exact for every representable
    rain rate up to ``max_rain_mm_h`` (and beyond, whenever the margin
    is already breached there); hops that never breach get all-``inf``
    thresholds.
    """
    # NaN compares false both ways, so ``<= 0`` alone would let it
    # through and no hop would ever fail.
    if not (np.isfinite(fade_margin_db) and fade_margin_db > 0):
        raise ValueError(
            f"fade margin must be a finite number > 0, got {fade_margin_db}"
        )
    margin = float(fade_margin_db)
    hop = np.atleast_1d(np.asarray(hop_km, dtype=float))
    if np.any(hop < 0):
        raise ValueError("hop length must be non-negative")
    k, alpha = rain_coefficients(frequency_ghz)
    cap = 100.0

    def att(rain):
        return path_attenuation_db_many(hop, rain, frequency_ghz)

    # -- locate the peak of the rising segment (d log att / dR = 0) ----
    # g(R) = alpha/R - 0.015 * hop/(d0(R) + hop) is strictly decreasing,
    # so the attenuation is unimodal on (0, 100] and rising beyond.
    def g(rain):
        d0 = 35.0 * np.exp(-0.015 * rain)
        with np.errstate(divide="ignore"):
            return alpha / rain - 0.015 * hop / (d0 + hop)

    peak_lo = np.full_like(hop, 1e-6)
    peak_hi = np.full_like(hop, cap)
    no_peak = g(peak_hi) >= 0  # still rising at the cap
    for _ in range(200):
        mid = 0.5 * (peak_lo + peak_hi)
        stuck = (mid == peak_lo) | (mid == peak_hi)
        falling = g(mid) < 0
        peak_hi = np.where(~stuck & falling, mid, peak_hi)
        peak_lo = np.where(~stuck & ~falling, mid, peak_lo)
        if stuck.all():
            break
    peak_lo = np.where(no_peak, cap, peak_lo)  # rising all the way
    peak_hi = np.where(no_peak, cap, peak_hi)
    att_peak_lo = att(peak_lo)  # largest float on the rising segment
    att_peak_hi = att(peak_hi)  # first float on the falling segment
    att_cap = att(np.full_like(hop, cap))
    att_max = att(np.full_like(hop, float(max_rain_mm_h)))

    # -- rise: crossing on the increasing segment [0, peak_lo] ---------
    lo, hi = _bisect_breach_boundary(
        hop, frequency_ghz, margin, np.zeros_like(hop), peak_lo
    )
    rise = np.where(
        att_peak_lo > margin,
        lo,
        # The 1-ulp corner where only the falling side breaches: every
        # float above peak_lo sits on that side.
        np.where(att_peak_hi > margin, peak_lo, np.inf),
    )

    # -- dip: crossing on the decreasing segment [peak_hi, 100] --------
    # Orient so the predicate is False at lo' = 100 and True at hi' =
    # peak_hi, then the largest breaching float is the returned hi'.
    dip_cap, dip_peak = _bisect_breach_boundary(
        hop, frequency_ghz, margin, np.full_like(hop, cap), peak_hi
    )
    dip = np.where(
        att_peak_hi <= margin,
        -np.inf,  # nothing on the falling segment breaches
        np.where(att_cap > margin, np.inf, dip_peak),
    )

    # -- recovery: crossing on the increasing segment [100, max] -------
    rec_lo, _ = _bisect_breach_boundary(
        hop, frequency_ghz, margin,
        np.full_like(hop, cap), np.full_like(hop, float(max_rain_mm_h)),
    )
    recovery = np.where(
        (att_cap <= margin) & (att_max > margin), rec_lo, np.inf
    )
    return CriticalRainRates(rise=rise, dip=dip, recovery=recovery)


def hop_fails(
    hop_km: float,
    rain_mm_h: float,
    fade_margin_db: float = 35.0,
    frequency_ghz: float = 11.0,
) -> bool:
    """The paper's binary failure rule: attenuation exceeds the margin."""
    if fade_margin_db <= 0:
        raise ValueError("fade margin must be positive")
    return path_attenuation_db(hop_km, rain_mm_h, frequency_ghz) > fade_margin_db
