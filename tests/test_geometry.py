"""Tests for the divergence-induced metric, its finite-difference oracle,
and the Hessian potential."""

import math
import re

import numpy as np
import pytest

from entrokit import (
    CONVENTIONS,
    DeformParams,
    DomainError,
    DimensionError,
    ParamError,
    PotentialCoefficients,
    ValidationError,
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
from entrokit.geometry import _fd_hessian_rows
from entrokit.properties import K_RANGE

PARAMS = DeformParams(0.25, 0.5)

# fd_hessian at n = 8 on the benchmark's base point (k = 0.25, default
# step), pinned bit for bit with sign bits: the diagonal, then the upper
# triangle in row-major order
N8_DIAG = [
    "0x1.fad560025c692p+1", "0x1.94b8e7bacaa6ap+1", "0x1.f1388a5d6f4ebp+2",
    "0x1.fe433c9d19e79p+2", "0x1.186876ae2b310p+2", "0x1.2926181e517f8p+1",
    "0x1.fd3c29b79ba51p+1", "0x1.dff6a3224d7c2p+1",
]
_Z, _A, _B = "0x0.0p+0", "0x1.7d78400000000p-41", "0x1.7d78400000000p-40"
N8_UPPER = [
    "-" + _A, _Z, _A, "-" + _A, _Z, _Z, _Z,
    _Z, _Z, "-" + _A, _A, _A, "-" + _A,
    _Z, "-" + _A, _Z, _Z, _A,
    _Z, "-" + _B, "-" + _B, "-" + _A,
    _Z, _Z, _Z,
    _Z, _Z,
    _Z,
]


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
        for step in (float("nan"), "1e-4", True, float("inf")):
            with pytest.raises(DomainError, match="step must be a real number > 0"):
                fd_hessian(make_distribution([0.5, 0.5]), PARAMS, step=step)

    def test_step_below_float_resolution_is_rejected(self):
        # at 1e-17 every difference rounds to 0, at 1e-12 the diagonal
        # reads 6.7e7 where the metric is 1.67
        p = make_distribution([0.3, 0.7])
        smallest = math.sqrt(np.finfo(float).eps) * 0.7
        for step in (1e-17, 1e-12, smallest * (1 - 1e-9)):
            with pytest.raises(DomainError, match=re.escape(f"smallest accepted is {smallest!r}")):
                fd_hessian(p, PARAMS, step=step)
        np.testing.assert_allclose(np.diag(fd_hessian(p, PARAMS, step=1e-6)),
                                   0.5 / p.p, rtol=1e-4)
        assert np.all(np.isfinite(fd_hessian(p, PARAMS, step=smallest)))

    def test_vector_required(self):
        with pytest.raises(DimensionError):
            fd_hessian(make_joint2([[0.25, 0.25], [0.25, 0.25]]), PARAMS)

    def test_fd_hessian_rows_are_the_public_calls(self):
        # one mixed batch, padded with 1.0 to width 6: each trial's block is
        # the public call on that row, bit for bit, and the rest is +0.0
        rng = np.random.default_rng(7)
        t, width = 300, 6
        n = rng.integers(2, width + 1, size=(t, 1))
        k = rng.uniform(*K_RANGE, size=(t, 1))
        h = np.where(np.arange(t)[:, None] % 3 == 0,
                     10.0 ** rng.uniform(-6.0, -2.5, size=(t, 1)), 1e-4)
        points = [_interior(rng, m).p for m in n[:, 0]]
        p = np.ones((t, width))
        for row, point in zip(p, points):
            row[: point.size] = point
        hess = _fd_hessian_rows(p, n, k, h)
        for i, (m, point) in enumerate(zip(n[:, 0], points)):
            public = fd_hessian(Distribution(point), DeformParams(k[i, 0], 1.0), step=h[i, 0])
            assert hess[i, :m, :m].tobytes() == public.tobytes()
            rest = np.concatenate([hess[i, m:].ravel(), hess[i, :m, m:].ravel()])
            assert rest.tobytes() == bytes(rest.nbytes)

    def test_fd_hessian_n8_golden(self):
        e = np.random.default_rng(0).exponential(size=8)
        p = make_distribution(0.5 * e / e.sum() + 0.5 / 8)
        h = fd_hessian(p, DeformParams(0.25, 1.0))
        assert [float(x).hex() for x in np.diag(h)] == N8_DIAG
        assert [float(x).hex() for x in h[np.triu_indices(8, 1)]] == N8_UPPER
        assert h.tobytes() == h.T.tobytes()


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
        with pytest.raises(ValidationError):
            quadratic_form(p, "ab", PARAMS)


class TestOperatorBits:
    """fisher_metric and quadratic_form against the expressions they
    computed before they called _metric_rows and _quadratic_rows, bit for
    bit."""

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_fisher_metric(self, convention):
        p = _interior(np.random.default_rng(6), 9)
        g = fisher_metric(p, PARAMS, convention).g
        assert g.tobytes() == (metric_coefficient(PARAMS, convention) / p.p).tobytes()

    @pytest.mark.parametrize("shape", [(7,), (9, 11), (1 << 16,)],
                             ids=["vector", "joint", "2^16 cells"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_quadratic_form(self, shape, order):
        # 2^16 cells are two runs of _LEAF, which _rowsum adds in numpy's tree
        rng = np.random.default_rng(7)
        e = rng.exponential(size=shape)
        p = Distribution(e / e.sum())
        z = rng.uniform(-1.0, 1.0, size=shape)
        dp = np.asarray(0.1 * p.p * (z - np.sum(p.p * z)), order=order)
        a = metric_coefficient(PARAMS, "derived")
        assert quadratic_form(p, dp, PARAMS) == np.sum(a / p.p * dp * dp)


@pytest.mark.parametrize("call, error, message", [
    (lambda p: fisher_metric([0.5, 0.5], PARAMS), ValidationError,
     "p must be a Distribution, got list"),
    (lambda p: fisher_metric(p, None), ParamError, "params must be a DeformParams, got NoneType"),
    (lambda p: quadratic_form([0.5, 0.5], [0.0, 0.0], PARAMS), ValidationError,
     "p must be a Distribution, got list"),
    (lambda p: quadratic_form(p, [0.0, 0.0], None), ParamError,
     "params must be a DeformParams, got NoneType"),
    (lambda p: quadratic_form(p, [0.0, 0.0], (0.25, 0.5)), ParamError,
     "params must be a DeformParams, got tuple"),
    (lambda p: fd_hessian(p.p, PARAMS), ValidationError, "p must be a Distribution, got ndarray"),
])
def test_operators_reject_a_wrong_type(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(make_distribution([0.5, 0.5]))


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
        for u in ("1", True):
            with pytest.raises(ValidationError):
                hessian_potential(u, PotentialCoefficients(A=1.0))
        for bad in ({"A": float("nan")}, {"A": 1.0, "c1": float("inf")}, {"A": 1j},
                    {"A": "1.0"}, {"A": True}):
            with pytest.raises(ParamError):
                hessian_potential(1.0, PotentialCoefficients(**bad))
