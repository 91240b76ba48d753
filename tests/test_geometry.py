"""Tests for the divergence-induced metric, its finite-difference oracle,
and the Hessian potential."""

import numpy as np
import pytest

from entrokit import (
    DeformParams,
    DomainError,
    DimensionError,
    ParamError,
    PotentialCoefficients,
    divergence,
    Distribution,
    fd_hessian,
    fisher_metric,
    hessian_potential,
    make_distribution,
    make_joint2,
    metric_coefficient,
    quadratic_form,
)

PARAMS = DeformParams(0.25, 0.5)


def _interior(rng, n):
    e = rng.exponential(size=n)
    return Distribution(0.5 * e / e.sum() + 0.5 / n)


class TestFisherMetric:
    def test_derived_convention(self):
        m = fisher_metric(make_distribution([0.5, 0.5]), PARAMS, "derived")
        np.testing.assert_allclose(m.g, [1.0, 1.0], rtol=1e-14)

    def test_paper_convention(self):
        m = fisher_metric(make_distribution([0.5, 0.5]), PARAMS, "paper")
        np.testing.assert_allclose(m.g, [5.0, 5.0], rtol=1e-14)

    def test_uniform_closed_form(self):
        for n in (2, 4, 8):
            for k in (0.1, 0.25, 0.45):
                params = DeformParams(k, 1.0)
                m = fisher_metric(make_distribution([1.0 / n] * n), params)
                np.testing.assert_allclose(m.g, n * (1 - 2 * k), rtol=1e-13)

    def test_positive_definite_for_k_below_half(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = _interior(rng, int(rng.integers(2, 9)))
            k = float(rng.uniform(0.05, 0.45))
            assert fisher_metric(p, DeformParams(k, 1.0)).g.min() > 0

    def test_requires_full_support(self):
        with pytest.raises(DomainError):
            fisher_metric(make_distribution([1.0, 0.0]), PARAMS)

    def test_bad_convention(self):
        with pytest.raises(ParamError):
            fisher_metric(make_distribution([0.5, 0.5]), PARAMS, "mixed")

    def test_coefficient_values(self):
        assert metric_coefficient(PARAMS, "derived") == 0.5
        assert metric_coefficient(PARAMS, "paper") == pytest.approx(2.5)


class TestFdHessian:
    def test_diagonal_at_half_half(self):
        h = fd_hessian(make_distribution([0.5, 0.5]), PARAMS, step=1e-4)
        np.testing.assert_allclose(np.diag(h), [1.0, 1.0], rtol=1e-5)

    def test_off_diagonals_vanish(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = _interior(rng, n)
            params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
            h = fd_hessian(p, params, step=1e-4)
            off = h[~np.eye(n, dtype=bool)]
            assert np.max(np.abs(off)) <= 1e-8

    def test_matches_derived_metric(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = _interior(rng, n)
            params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
            h = fd_hessian(p, params, step=1e-4)
            g = fisher_metric(p, params).g
            np.testing.assert_allclose(np.diag(h), g, rtol=1e-5)

    def test_inverse_scaling_with_support(self):
        d2 = np.diag(fd_hessian(make_distribution([0.5, 0.5]), PARAMS, 1e-4))
        d4 = np.diag(fd_hessian(make_distribution([0.25] * 4), PARAMS, 1e-4))
        np.testing.assert_allclose(d4, 2 * d2.mean(), rtol=1e-4)

    def test_step_validation(self):
        p = make_distribution([0.999, 0.001])
        with pytest.raises(DomainError):
            fd_hessian(p, PARAMS, step=0.01)
        with pytest.raises(DomainError):
            fd_hessian(make_distribution([0.5, 0.5]), PARAMS, step=0.0)
        with pytest.raises(DomainError):
            fd_hessian(make_distribution([0.5, 0.5]), PARAMS, step=float("nan"))

    def test_vector_required(self):
        with pytest.raises(DimensionError):
            fd_hessian(make_joint2([[0.25, 0.25], [0.25, 0.25]]), PARAMS)


class TestQuadraticForm:
    def test_zero_displacement(self):
        assert quadratic_form(make_distribution([0.5, 0.5]), [0.0, 0.0], PARAMS) == 0.0

    def test_two_point_example(self):
        eps = 1e-3
        val = quadratic_form(make_distribution([0.5, 0.5]), [eps, -eps], PARAMS)
        assert val == pytest.approx(2e-6, rel=1e-12)

    def test_taylor_ratio_approaches_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = _interior(rng, n)
            params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
            v = rng.normal(size=n)
            v -= v.mean()
            v /= np.linalg.norm(v)
            errors = []
            for delta in (1e-2, 1e-3, 1e-4):
                dp = delta * v
                d = divergence(Distribution(p.p + dp), p, params).value
                errors.append(abs(2 * d / quadratic_form(p, dp, params) - 1))
            assert errors[0] >= errors[1] - 1e-9
            assert errors[1] >= errors[2] - 1e-9
            assert errors[2] <= 1e-3

    def test_validation(self):
        p = make_distribution([0.5, 0.5])
        with pytest.raises(DomainError):
            quadratic_form(p, [0.1, 0.1], PARAMS)  # does not sum to 0
        with pytest.raises(DimensionError):
            quadratic_form(p, [0.0, 0.0, 0.0], PARAMS)
        with pytest.raises(DomainError):
            quadratic_form(p, [0.6, -0.6], PARAMS)  # leaves the simplex
        for dp in ([np.nan, np.nan], [np.nan, 0.0], [np.inf, -np.inf]):
            with pytest.raises(DomainError):
                quadratic_form(p, dp, PARAMS)


class TestHessianPotential:
    def test_value_at_one(self):
        for a in (0.5, 1.0, 2.5):
            coeffs = PotentialCoefficients(A=a)
            assert hessian_potential(1.0, coeffs) == pytest.approx(-a, rel=1e-15)

    def test_second_difference_example(self):
        coeffs = PotentialCoefficients(A=1.0)
        h = 1e-4
        fd = (
            hessian_potential(0.5 + h, coeffs)
            - 2 * hessian_potential(0.5, coeffs)
            + hessian_potential(0.5 - h, coeffs)
        ) / h**2
        assert fd == pytest.approx(2.0, abs=1e-6)

    def test_curvature_matches_both_conventions(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            params = DeformParams(
                float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 2.0))
            )
            u = float(rng.uniform(0.2, 2.0))
            c1, c2 = rng.uniform(-1, 1, 2)
            h = 2e-4 * np.sqrt(u)
            for conv in ("derived", "paper"):
                a = metric_coefficient(params, conv)
                coeffs = PotentialCoefficients(A=a, c1=float(c1), c2=float(c2))
                fd = (
                    hessian_potential(u + h, coeffs)
                    - 2 * hessian_potential(u, coeffs)
                    + hessian_potential(u - h, coeffs)
                ) / h**2
                assert fd == pytest.approx(a / u, rel=1e-6)

    def test_metric_diagonal_is_potential_curvature(self):
        # g_ii = A / p_i: the analytic second derivative of the potential
        p = make_distribution([0.2, 0.3, 0.5])
        for conv in ("derived", "paper"):
            g = fisher_metric(p, PARAMS, conv).g
            a = metric_coefficient(PARAMS, conv)
            np.testing.assert_allclose(g, a / p.p, rtol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            hessian_potential(0.0, PotentialCoefficients(A=1.0))
        for u in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                hessian_potential(u, PotentialCoefficients(A=1.0))
