import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from nomamec import lambert_wm1
from nomamec.lambertw import BRANCH_POINT


def residual(w, x):
    return abs(w * math.exp(w) - x) / max(1.0, abs(x))


class TestSecondaryBranch:
    def test_branch_point(self):
        assert lambert_wm1(BRANCH_POINT) == -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_wm1(0.0)
        with pytest.raises(ValueError):
            lambert_wm1(-1.0)

    def test_identity(self):
        for t in np.logspace(-12, math.log10(-BRANCH_POINT) - 1e-9, 1500):
            x = BRANCH_POINT + float(t)
            if x >= 0:
                continue
            assert residual(lambert_wm1(x), x) <= 1e-12

    def test_across_series_switch(self):
        # q = 2(e x + 1): the bare series below q = 2e-8, Halley from the
        # series seed below q = 0.5, Halley from the asymptotic seed above
        for q_switch in (2e-8, 0.5):
            x_switch = (0.5 * q_switch - 1.0) / math.e
            xs = x_switch + np.linspace(-1e-2, 1e-2, 2001) * (x_switch - BRANCH_POINT)
            ws = [lambert_wm1(float(x)) for x in xs]
            assert all(b < a for a, b in zip(ws, ws[1:]))
            assert max(abs(w * math.exp(w) - x) / abs(x) for w, x in zip(ws, xs)) <= 1e-13

    def test_relative_identity_near_zero(self):
        # scaling by max(1, |x|) hides a wrong answer for tiny |x|
        for x in -np.logspace(-300, -1, 300):
            w = lambert_wm1(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_below_principal(self):
        for x in [-0.3, -0.1, -0.01, -1e-4]:
            assert lambert_wm1(x) < -1.0

    def test_against_scipy(self):
        for x in [-0.36, -0.2, -0.05, -1e-3, -1e-6]:
            ref = scipy_lambertw(complex(x), -1).real
            assert lambert_wm1(x) == pytest.approx(ref, rel=1e-9)

    def test_dense_against_scipy(self):
        # the identity grid densified plus -10^[-300, -1]: 25,000 points.
        # Within 1e-8 of the branch point scipy's own W-1 is off by up to
        # 1e-4 relative (residual 5e-9), so there only the residual counts
        near = BRANCH_POINT + np.logspace(-12, math.log10(-BRANCH_POINT) - 1e-9, 20000)
        xs = np.concatenate([near[near < 0], -np.logspace(-300, -1, 5000)])
        assert len(xs) >= 24000
        ws = np.array([lambert_wm1(float(x)) for x in xs])
        assert np.max(np.abs(ws * np.exp(ws) - xs) / np.abs(xs)) <= 1e-13
        far = xs - BRANCH_POINT >= 1e-8
        ref = scipy_lambertw(xs[far], -1).real
        assert np.max(np.abs(ws[far] - ref) / np.abs(ref)) <= 1e-11

    def test_tiny_arguments(self):
        # e^{-w} overflows for x above about -1e-305; the iteration takes it
        # in two halves there
        for x in [-1e-305, -2e-306, -1e-308]:
            ref = scipy_lambertw(complex(x), -1).real
            assert lambert_wm1(x) == pytest.approx(ref, rel=1e-15)
