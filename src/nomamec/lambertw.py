"""Secondary real branch of Lambert W, on the math module alone.

lambert_wm1 is the w <= -1 solving w e^w = x for -1/e <= x < 0, the
branch the closed form's water levels need. With q = 2(e x + 1):

- q < 2e-8: the third-order branch-point series, returned as is (its
  error is O(q^2), below rounding);
- q < 0.5: the same series seeds Halley's iteration;
- otherwise the asymptotic seed L1 - L2 + L2/L1, with L1 = ln(-x) and
  L2 = ln(-L1).

Halley steps run on f(w) = w - x e^{-w}, which has the root of
w e^w - x but never forms e^w, so x down to -1e-300 loses nothing to
underflow. They stop once a step falls below 1e-15 relative. Near the
branch point f' = 1 + w vanishes and rounding alone moves w by about
1e-16 / |1 + w|, so the tolerance widens by that factor there. At -1/e
itself the result is exactly -1. The residual |w e^w - x| / |x| stays
below 1e-13 across the domain. Only math is imported, so no runtime
path of the package imports scipy.special.
"""

from __future__ import annotations

import math

__all__ = ["lambert_wm1"]

BRANCH_POINT = -math.exp(-1.0)  # -1/e, left edge of the real branches

_ROUNDING_BAND = 1e-15 * abs(BRANCH_POINT)  # x this far below -1/e still maps to -1
_SERIES_ONLY = 2e-8  # q below which the series is returned without refinement
_SERIES_SEED = 0.5  # q below which the series, not the asymptotic form, seeds Halley
_EXP_LIMIT = -709.0  # below this w (x above about -9e-306) e^{-w} overflows: take it in halves
_MAX_STEPS = 8  # Halley converges cubically: 1-4 steps from either seed


def lambert_wm1(x: float) -> float:
    """Secondary real branch: the w <= -1 solving w * exp(w) = x.

    Domain -1/e <= x < 0; raises ValueError outside it or on nan
    (callers treat that as "no tight solution exists").
    """
    if math.isnan(x):
        raise ValueError("lambert_wm1: nan input")
    if x >= 0.0:
        raise ValueError("lambert_wm1: domain is [-1/e, 0)")
    if x <= BRANCH_POINT:
        if x > BRANCH_POINT - _ROUNDING_BAND:
            return -1.0  # the branch point, up to rounding
        raise ValueError(f"lambert_wm1: x={x!r} below the branch point -1/e")
    q = 2.0 * (math.e * x + 1.0)
    if q < _SERIES_SEED:
        p = -math.sqrt(q)
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
        if q < _SERIES_ONLY:
            return w
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    for _ in range(_MAX_STEPS):
        if w > _EXP_LIMIT:
            t = x * math.exp(-w)  # equals w at the root
        else:
            half = math.exp(-0.5 * w)
            t = x * half * half
        f = w - t
        d = 1.0 + t
        step = 2.0 * f * d / (2.0 * d * d + f * t)
        w -= step
        if abs(step) * min(1.0, -1.0 - w) <= -1e-15 * w:
            break
    return w
