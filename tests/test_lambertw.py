import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from nomamec import lambert_w0, lambert_wm1
from nomamec.lambertw import BRANCH_POINT


def residual(w, x):
    return abs(w * math.exp(w) - x) / max(1.0, abs(x))


class TestPrincipalBranch:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_e_maps_to_one(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(BRANCH_POINT) == -1.0

    def test_below_domain_raises(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    def test_identity_log_spaced(self):
        for t in np.logspace(-12, math.log10(1e6 - BRANCH_POINT), 2000):
            x = BRANCH_POINT + float(t)
            assert residual(lambert_w0(x), x) <= 1e-12

    def test_monotone_increasing(self):
        xs = BRANCH_POINT + np.logspace(-10, 6, 500)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_against_scipy(self):
        for x in [-0.367, -0.3, -0.05, 0.1, 1.0, 7.3, 123.0, 9.9e5]:
            ref = scipy_lambertw(complex(x), 0).real
            assert lambert_w0(x) == pytest.approx(ref, rel=1e-10, abs=1e-10)


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
        # the branch-point series hands over to scipy at BRANCH_POINT + 1e-8
        xs = BRANCH_POINT + 1e-8 + np.linspace(-5e-9, 5e-9, 1001)
        ws = [lambert_wm1(float(x)) for x in xs]
        assert all(b < a for a, b in zip(ws, ws[1:]))
        assert max(residual(w, float(x)) for w, x in zip(ws, xs)) <= 1e-12

    def test_relative_identity_near_zero(self):
        # scaling by max(1, |x|) hides a wrong answer for tiny |x|
        for x in -np.logspace(-300, -1, 300):
            w = lambert_wm1(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_below_principal(self):
        for x in [-0.3, -0.1, -0.01, -1e-4]:
            assert lambert_wm1(x) < -1.0 < lambert_w0(x) + 1.0

    def test_against_scipy(self):
        for x in [-0.36, -0.2, -0.05, -1e-3, -1e-6]:
            ref = scipy_lambertw(complex(x), -1).real
            assert lambert_wm1(x) == pytest.approx(ref, rel=1e-9)
