"""Real-branch Lambert W: thin wrappers around scipy.special.lambertw.

Both real branches are provided: lambert_w0 on [-1/e, inf) and
lambert_wm1 on [-1/e, 0). Within 1e-8 of the branch point scipy's W-1
collapses to about -1 (residual up to 2e-9), so both branches use the
third-order branch-point series there (residual below 1e-16); at -1/e
itself, where scipy returns nan, both return exactly -1. Elsewhere
scipy's residual w*exp(w) - x stays below 1e-12 * max(1, |x|).
"""

from __future__ import annotations

import math

from scipy.special import lambertw

__all__ = ["lambert_w0", "lambert_wm1", "BRANCH_POINT"]

BRANCH_POINT = -math.exp(-1.0)  # -1/e, left edge of both real branches

_SERIES_BAND = 1e-8  # x - BRANCH_POINT below which the series replaces scipy
_ROUNDING_BAND = 1e-15 * abs(BRANCH_POINT)  # x this far below -1/e still maps to -1


def _branch_series(x: float, sign: float) -> float:
    """Series around the branch point; sign +1 for W0, -1 for W-1."""
    p = sign * math.sqrt(2.0 * (math.e * x + 1.0))
    return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3


def _evaluate(name: str, x: float, k: int) -> float:
    """W_k(x) for k in (0, -1); ValueError below the branch point or on nan."""
    if math.isnan(x):
        raise ValueError(f"{name}: nan input")
    if x <= BRANCH_POINT:
        if x > BRANCH_POINT - _ROUNDING_BAND:
            return -1.0  # the branch point, up to rounding
        raise ValueError(f"{name}: x={x!r} below the branch point -1/e")
    if x < BRANCH_POINT + _SERIES_BAND:
        return _branch_series(x, 1.0 if k == 0 else -1.0)
    return float(lambertw(x, k).real)


def lambert_w0(x: float) -> float:
    """Principal branch: the w >= -1 solving w * exp(w) = x.

    Domain x >= -1/e; raises ValueError outside (callers treat that as
    "no tight solution exists").
    """
    return _evaluate("lambert_w0", x, 0)


def lambert_wm1(x: float) -> float:
    """Secondary real branch: the w <= -1 solving w * exp(w) = x.

    Domain -1/e <= x < 0.
    """
    if x >= 0.0:
        raise ValueError("lambert_wm1: domain is [-1/e, 0)")
    return _evaluate("lambert_wm1", x, -1)
