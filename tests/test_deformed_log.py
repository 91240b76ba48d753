"""Tests for the deformed-logarithm scalar kernel.

Frozen constants were computed with an independent 50-digit evaluator of
the defining formulas (mpmath); identities are also exercised with
hypothesis over randomized arguments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit import (
    DeformParams,
    DomainError,
    LegacyRegionWarning,
    ParamError,
    legacy_Ln,
    legacy_u,
    ln_kr,
    ln_q,
)
from entrokit.deformed_log import K_MIN

positive_x = st.floats(min_value=0.05, max_value=20.0)
params_list = [
    DeformParams(0.3, 0.7),
    DeformParams(0.05, 0.1),
    DeformParams(0.5, 2.0),
    DeformParams(0.45, 0.45),
]


class TestDeformParams:
    def test_strict_domain_accepted(self):
        DeformParams(0.5, 1.0)
        DeformParams(1e-4, 1e-4)

    @pytest.mark.parametrize("k,r", [(0.0, 1.0), (-0.1, 1.0), (0.6, 1.0),
                                     (0.3, 0.0), (0.3, -0.5)])
    def test_strict_domain_rejected(self, k, r):
        with pytest.raises(ParamError):
            DeformParams(k, r)

    def test_relaxed_allows_out_of_domain(self):
        DeformParams(0.75, -0.3, relaxed=True)
        DeformParams(-0.25, -0.25, relaxed=True)

    def test_relaxed_still_rejects_k_zero(self):
        with pytest.raises(ParamError):
            DeformParams(0.0, 1.0, relaxed=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ParamError):
            DeformParams(float("nan"), 1.0, relaxed=True)

    @pytest.mark.parametrize(
        "k,r", [("0.2", 1), (0.2, "1"), (None, 1), (0.2 + 0j, 1), (0.2, 1 + 0j)]
    )
    def test_non_numeric_rejected(self, k, r):
        for relaxed in (False, True):
            with pytest.raises(ParamError):
                DeformParams(k, r, relaxed=relaxed)

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_k_below_floor_rejected(self, relaxed):
        for k in (5e-324, K_MIN / 2):
            with pytest.raises(ParamError):
                DeformParams(k, 1.0, relaxed=relaxed)
        with pytest.raises(ParamError):
            DeformParams(-5e-324, 1.0, relaxed=True)
        DeformParams(K_MIN, 1.0, relaxed=relaxed)

    @pytest.mark.parametrize("k,r,inside", [
        (0.4, -0.2, True),    # |k| < 1/2 branch: -0.4 <= -0.2 <= 0.4
        (0.4, 0.45, False),
        (0.7, 0.2, True),     # 1/2 <= |k| < 1 branch: -0.3 <= 0.2 <= 0.3
        (0.7, 0.35, False),
        (-0.4, 0.3, True),
        (1.0, 0.0, False),
    ])
    def test_legacy_region_membership(self, k, r, inside):
        assert DeformParams(k, r, relaxed=True).in_legacy_region is inside


class TestLnKr:
    def test_one_maps_to_zero_exactly(self):
        for params in params_list:
            assert ln_kr(1.0, params) == 0.0

    def test_frozen_value(self):
        assert ln_kr(0.5, DeformParams(0.3, 0.7)) == pytest.approx(
            -1.1341534820451762, rel=1e-14
        )

    def test_tsallis_point(self):
        params = DeformParams(0.5, 0.5)
        assert ln_kr(0.5, params) == pytest.approx(-1.0, rel=1e-14)
        assert ln_kr(0.5, params) == pytest.approx(ln_q(0.5, 2.0), rel=1e-14)

    def test_reduces_to_q_log_on_diagonal(self):
        # k = r = (q-1)/2
        for q in (1.2, 1.5, 2.0):
            params = DeformParams((q - 1) / 2, (q - 1) / 2)
            for x in (0.1, 0.5, 0.9, 1.5, 7.0):
                assert ln_kr(x, params) == pytest.approx(ln_q(x, q), rel=1e-13)

    def test_rejects_nonpositive(self):
        params = DeformParams(0.3, 0.7)
        with pytest.raises(DomainError):
            ln_kr(0.0, params)
        with pytest.raises(DomainError):
            ln_kr(-1.0, params)
        with pytest.raises(DomainError):
            ln_kr([0.5, -0.5], params)

    def test_accepts_arrays(self):
        out = ln_kr(np.array([1.0, 0.5]), DeformParams(0.5, 0.5))
        np.testing.assert_allclose(out, [0.0, -1.0], rtol=1e-14)

    @settings(deadline=None)
    @given(x=positive_x, y=positive_x)
    def test_product_rule_weighted(self, x, y):
        params = DeformParams(0.3, 0.7)
        k, r = params.k, params.r
        wx = x ** (r + k) * ln_kr(x, params)
        wy = y ** (r + k) * ln_kr(y, params)
        lhs = (x * y) ** (r + k) * ln_kr(x * y, params)
        rhs = wx + wy + 2 * k * wx * wy
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(deadline=None)
    @given(x=positive_x, y=positive_x)
    def test_product_rule_direct(self, x, y):
        params = DeformParams(0.2, 1.3)
        k, r = params.k, params.r
        lhs = ln_kr(x * y, params)
        rhs = x ** -(r - k) * ln_kr(y, params) + y ** -(r + k) * ln_kr(x, params)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(deadline=None)
    @given(x=positive_x)
    def test_inversion(self, x):
        params = DeformParams(0.25, 0.6)
        lhs = ln_kr(1.0 / x, params)
        rhs = -(x ** (2 * params.r)) * ln_kr(x, params)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(deadline=None)
    @given(x=positive_x, y=positive_x)
    def test_quotient(self, x, y):
        params = DeformParams(0.25, 0.6)
        k, r = params.k, params.r
        lhs = ln_kr(x / y, params)
        rhs = -(y ** (2 * r)) / x ** (r - k) * ln_kr(y, params) + y ** (
            r + k
        ) * ln_kr(x, params)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(deadline=None)
    @given(x=st.floats(min_value=0.2, max_value=5.0),
           a=st.floats(min_value=0.1, max_value=1.6))
    def test_power_rule(self, x, a):
        params = DeformParams(0.3, 0.7)
        scaled = DeformParams(a * params.k, a * params.r)
        assert ln_kr(x ** a, params) == pytest.approx(
            a * ln_kr(x, scaled), rel=1e-12, abs=1e-12
        )

    def test_power_rule_negative_exponent_relaxed(self):
        params = DeformParams(0.2, 0.5)
        a = -1.5
        scaled = DeformParams(a * params.k, a * params.r, relaxed=True)
        for x in (0.4, 0.9, 2.5):
            assert ln_kr(x ** a, params) == pytest.approx(
                a * ln_kr(x, scaled), rel=1e-12
            )


class TestConvexityWitnesses:
    @pytest.mark.parametrize("params", params_list)
    def test_neg_weighted_log_convex_on_unit_interval(self, params):
        grid = np.linspace(1e-3, 1.0, 500)
        f = -(grid ** (params.r + params.k)) * ln_kr(grid, params)
        sec = f[2:] - 2 * f[1:-1] + f[:-2]
        assert sec.min() >= -1e-9

    @pytest.mark.parametrize("params", params_list)
    def test_logsum_weight_convex_on_positive_axis(self, params):
        grid = np.linspace(1e-3, 4.0, 500)
        f = grid ** (params.r - params.k + 1.0) * ln_kr(grid, params)
        sec = f[2:] - 2 * f[1:-1] + f[:-2]
        assert sec.min() >= -1e-9


class TestLnQ:
    def test_examples(self):
        assert ln_q(1.0, 2.0) == 0.0
        assert ln_q(0.5, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_shannon_limit(self):
        e = math.e
        assert abs(ln_q(e, 1.0 + 1e-6) - 1.0) <= 1e-5
        assert abs(ln_q(e, 1.0 - 1e-6) - 1.0) <= 1e-5

    def test_q_one_rejected(self):
        with pytest.raises(ParamError):
            ln_q(0.5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_q(0.0, 2.0)


class TestLegacyForms:
    def test_ln_at_one(self):
        params = DeformParams(0.4, -0.2, relaxed=True)
        assert legacy_Ln(1.0, params) == 0.0

    def test_frozen_value(self):
        # 0.5^{-0.2} (0.5^{0.4} - 0.5^{-0.4}) / 0.8, via the high-precision
        # evaluator of this exact expression
        params = DeformParams(0.4, -0.2, relaxed=True)
        assert legacy_Ln(0.5, params) == pytest.approx(
            -0.8064575040178424, rel=1e-14
        )

    def test_u_values(self):
        assert legacy_u(1.0, DeformParams(0.4, -0.2, relaxed=True)) == pytest.approx(
            1.0, rel=1e-15
        )
        assert legacy_u(0.25, DeformParams(0.5, 0.0, relaxed=True)) == pytest.approx(
            1.25, rel=1e-15
        )

    def test_product_rule(self):
        params = DeformParams(0.4, -0.2, relaxed=True)
        x, y = 0.3, 0.6
        lhs = legacy_Ln(x * y, params)
        rhs = legacy_u(x, params) * legacy_Ln(y, params) + legacy_Ln(
            x, params
        ) * legacy_u(y, params)
        assert abs(lhs - rhs) <= 1e-12
        assert lhs == pytest.approx(-2.6103261719025875, rel=1e-13)

    def test_mirror_of_current_form(self):
        # Ln_{k,r}(x) = ln_{k,-r}(x): the legacy form carries x^{+r}
        params = DeformParams(0.4, -0.2, relaxed=True)
        mirrored = DeformParams(0.4, 0.2)
        for x in (0.1, 0.5, 0.9, 2.0):
            assert legacy_Ln(x, params) == pytest.approx(
                ln_kr(x, mirrored), rel=1e-13
            )

    def test_warns_outside_region(self):
        params = DeformParams(0.3, -0.8, relaxed=True)
        with pytest.warns(LegacyRegionWarning):
            legacy_Ln(0.5, params)

    def test_silent_inside_region(self):
        params = DeformParams(0.4, -0.2, relaxed=True)
        with np.errstate(all="raise"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                legacy_Ln(0.5, params)

    def test_domain(self):
        params = DeformParams(0.4, -0.2, relaxed=True)
        with pytest.raises(DomainError):
            legacy_Ln(0.0, params)
        with pytest.raises(DomainError):
            legacy_u(-2.0, params)

    def test_theorem_shape_witnesses(self):
        # -Ln is positive, decreasing, convex on (0, 1] for r < 0, 0 < k <= 1
        rng = np.random.default_rng(11)
        grid = np.linspace(1e-3, 1.0, 400)
        for _ in range(5):
            k = float(rng.uniform(0.05, 1.0))
            r = float(rng.uniform(-0.9, -0.05))
            params = DeformParams(k, r, relaxed=True)
            g = -legacy_Ln(grid, params, warn_outside_region=False)
            assert g.min() >= -1e-9
            assert (g[:-1] - g[1:]).min() >= -1e-9
            sec = g[2:] - 2 * g[1:-1] + g[:-2]
            assert sec.min() >= -1e-9
