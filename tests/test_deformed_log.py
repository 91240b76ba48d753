"""Tests for the deformed-logarithm scalar kernel.

Frozen constants were computed with an independent 50-digit evaluator of
the defining formulas (mpmath); identities are also exercised with
hypothesis over randomized arguments.
"""

import importlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrokit
from entrokit import (
    DeformParams,
    DomainError,
    LegacyRegionWarning,
    ParamError,
    ValidationError,
    legacy_Ln,
    legacy_u,
    ln_kr,
    ln_q,
)
from entrokit.deformed_log import K_MIN, _deformed, _family
from entrokit.distributions import _LEAF
from entrokit.entropy import _cell_terms
from entrokit.properties import _Params

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
        "k,r",
        [("0.2", 1), (0.2, "1"), (None, 1), (0.2 + 0j, 1), (0.2, 1 + 0j), (True, 1.0),
         (0.2, True), (np.array([0.2, 0.3]), 1.0), (np.array([0.25]), 1.0),
         (0.25, np.array([1.0])), ([0.25], 1.0)],
    )
    def test_non_numeric_rejected(self, k, r):
        for relaxed in (False, True):
            with pytest.raises(ParamError, match="^k and r must be real numbers"):
                DeformParams(k, r, relaxed=relaxed)

    @pytest.mark.parametrize("k", [np.array(0.25), np.float64(0.25), np.float32(0.25)])
    def test_zero_d_arrays_and_numpy_scalars_accepted(self, k):
        params = DeformParams(k, np.array(1.0))
        assert ln_kr(2.0, params) == ln_kr(2.0, DeformParams(0.25, 1.0))

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
        for x in ("2", True, [0.5, "2"]):
            with pytest.raises(ValidationError):
                ln_kr(x, params)

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


def _ln_kr_at_once(x, k, r):
    """ln_kr's arithmetic on the whole array at once: the block loop's
    reference."""
    lx = np.log(x)
    out = np.exp(-(r + k) * lx)
    return out * np.expm1(2.0 * k * lx) / (2.0 * k)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


class TestLnKrBlocks:
    """ln_kr writes its output one box of at most _LEAF cells at a time;
    the values are those of the whole array at once, bit for bit."""

    @pytest.mark.parametrize("n", [_LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 5])
    def test_blocks_equal_one_pass(self, n):
        x = np.exp(np.random.default_rng(n).uniform(-12.0, 12.0, n))
        params = DeformParams(0.25, 1.0)
        assert (_bits(ln_kr(x, params)) == _bits(_ln_kr_at_once(x, 0.25, 1.0))).all()

    # the sweep's (256, 201) grid is two runs of _LEAF cells
    @pytest.mark.parametrize("x_shape", [(5, 30001), (30001,), (256, 201)])
    def test_columns_of_k_and_r_broadcast_across_blocks(self, x_shape):
        # one (k, r) per row, as the sweep passes them, over more than one block
        rows = x_shape[0] if len(x_shape) == 2 else 5
        rng = np.random.default_rng(7)
        x = np.exp(rng.uniform(-5.0, 5.0, x_shape))
        cols = _Params(k=rng.uniform(0.05, 0.45, (rows, 1)), r=rng.uniform(0.1, 2.0, (rows, 1)))
        out = ln_kr(x, cols)
        assert out.shape == (rows, x_shape[-1]) and out.size > _LEAF
        assert (_bits(out) == _bits(_ln_kr_at_once(x, cols.k, cols.r))).all()

    def test_layout_of_x_is_kept(self):
        x = np.asfortranarray(np.exp(np.random.default_rng(8).uniform(-3.0, 3.0, (300, 700))))
        out = ln_kr(x, DeformParams(0.3, 0.7))
        assert out.flags.f_contiguous
        assert (_bits(out) == _bits(_ln_kr_at_once(x, 0.3, 0.7))).all()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_a_bad_point_in_a_late_block_is_rejected(self, bad):
        x = np.full(3 * _LEAF + 5, 0.5)
        x[-1] = bad
        with pytest.raises(DomainError, match="^x must be finite and > 0$"):
            ln_kr(x, DeformParams(0.3, 0.7))


def _former_ln_q(x, q):
    """ln_q as it was written before it went through ln_kr's evaluator."""
    return np.expm1((1.0 - q) * np.log(x)) / (1.0 - q)


def _former_legacy_Ln(x, k, r):
    """legacy_Ln as it was written before it went through ln_kr's evaluator."""
    lx = np.log(x)
    return np.expm1(2.0 * k * lx) * np.exp((r - k) * lx) / (2.0 * k)


def _tsallis_entropy_terms(p, q):
    """The terms that _tsallis_entropy_rows sums, as it gets them."""
    return _cell_terms(p, _deformed, q, 1.0 - q)


def _former_tsallis_terms(p, q):
    """tsallis_entropy's terms p^q ln_q(p) as they were written before they
    went through ln_kr's evaluator."""
    lp = np.log(p)
    t = np.exp(q * lp)
    lp *= 1.0 - q
    t *= np.expm1(lp, out=lp)
    t /= 1.0 - q
    return t


class TestOneEvaluator:
    """ln_q, legacy_Ln and the Tsallis entropy terms are ln_kr's evaluator,
    x^a (x^b - 1) / b, with their own a and b; each keeps the bits of the
    formula it had of its own. That evaluator forms every term of the
    family."""

    def test_every_term_of_the_family_is_formed_by_it(self, monkeypatch):
        # a mutant evaluator, at b (1 + 1e-12), moves every value of the
        # family, the literal forms through ln_{k,r}, and neither the Shannon
        # entropy nor the KL divergence
        p, q = entrokit.make_distribution([0.1, 0.2, 0.3, 0.4]), entrokit.make_distribution([0.25] * 4)
        j, params = entrokit.make_joint2([[0.1, 0.2], [0.3, 0.4]]), DeformParams(0.3, 0.7)
        family = {
            "entropy": lambda: entrokit.entropy(p, params).value,
            "conditional_entropy": lambda: entrokit.conditional_entropy(j, params).value,
            "divergence": lambda: entrokit.divergence(p, q, params).value,
            "mutual_divergence": lambda: entrokit.mutual_divergence(j, params).value,
            "fd_hessian": lambda: entrokit.fd_hessian(p, params),
            "ln_kr": lambda: ln_kr(p.p, params),
            "legacy_Ln": lambda: legacy_Ln(p.p, params, warn_outside_region=False),
            "ln_q": lambda: ln_q(p.p, 0.4),
            "tsallis_entropy": lambda: entrokit.tsallis_entropy(p, 0.4),
            "tsallis_divergence": lambda: entrokit.tsallis_divergence(p, q, 0.4),
            "entropy_literal": lambda: entrokit.entropy_literal(p, params),
            "divergence_literal pq": lambda: entrokit.divergence_literal(p, q, params, "pq"),
            "divergence_literal qp": lambda: entrokit.divergence_literal(p, q, params, "qp"),
        }
        others = {
            "shannon_entropy": lambda: entrokit.shannon_entropy(p),
            "kl_divergence": lambda: entrokit.kl_divergence(p, q),
        }

        def values():
            return {name: _bits(np.asarray(f())).tolist() for name, f in {**family, **others}.items()}

        def mutant(x, a, b, *y, **options):
            return _family(x, a, b * (1.0 + 1e-12), *y, **options)

        before = values()
        for name in ("deformed_log", "entropy", "divergence", "geometry"):
            module = importlib.import_module(f"entrokit.{name}")
            if hasattr(module, "_family"):
                monkeypatch.setattr(module, "_family", mutant)
        after = values()
        assert [name for name in before if before[name] != after[name]] == list(family)

    # one box, several boxes, and a 0-d x
    @pytest.mark.parametrize("shape", [(7,), (3 * _LEAF + 5,), ()])
    def test_ln_q(self, shape):
        rng = np.random.default_rng(21)
        x = np.exp(rng.uniform(-30.0, 30.0, shape))
        for q in rng.uniform(-2.0, 4.0, 12):
            out = ln_q(x, q)
            assert np.ndim(out) == len(shape) and type(out) is (float if not shape else np.ndarray)
            assert (_bits(np.asarray(out)) == _bits(_former_ln_q(x, q))).all()

    @pytest.mark.parametrize("shape", [(7,), (3 * _LEAF + 5,), ()])
    def test_legacy_Ln_with_relaxed_parameters(self, shape):
        rng = np.random.default_rng(22)
        x = np.exp(rng.uniform(-30.0, 30.0, shape))
        for k, r in zip(rng.uniform(-1.5, 1.5, 12), rng.uniform(-2.0, 2.0, 12)):
            out = legacy_Ln(x, DeformParams(k, r, relaxed=True), warn_outside_region=False)
            assert (_bits(np.asarray(out)) == _bits(_former_legacy_Ln(x, k, r))).all()

    @pytest.mark.parametrize("x_shape", [(5, 40), (5, 30001)])
    def test_columns_of_k_r_and_q(self, x_shape):
        # one parameter per row, as the sweep passes them
        rng = np.random.default_rng(23)
        x = np.exp(rng.uniform(-5.0, 5.0, x_shape))
        cols = _Params(k=rng.uniform(0.05, 0.45, (5, 1)), r=rng.uniform(0.1, 2.0, (5, 1)))
        out = legacy_Ln(x, cols, warn_outside_region=False)
        assert (_bits(out) == _bits(_former_legacy_Ln(x, cols.k, cols.r))).all()
        p, q = x / x.max(), rng.uniform(0.1, 2.9, (5, 1))
        assert (_bits(_tsallis_entropy_terms(p, q)) == _bits(_former_tsallis_terms(p, q))).all()

    def test_tsallis_entropy_terms(self):
        rng = np.random.default_rng(24)
        p = rng.dirichlet(np.full(300, 0.3))[np.newaxis]
        p = p[p > 0][np.newaxis]
        for q in (0.1, 0.5, 1.5, 2.5, 1.0 + 1e-9):
            assert (_bits(_tsallis_entropy_terms(p, q)) == _bits(_former_tsallis_terms(p, q))).all()

    def test_invalid_x_raises_before_the_legacy_warning(self):
        params = DeformParams(0.3, -0.8, relaxed=True)  # outside the legacy region
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                legacy_Ln(np.array([0.5, 0.0]), params)


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
        for q in (1.0, float("nan"), "2"):
            with pytest.raises(ParamError):
                ln_q(0.5, q)

    def test_fraction_parameter(self):
        assert float(ln_q(0.3, Fraction(3, 2))).hex() == float(ln_q(0.3, 1.5)).hex()

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_q(0.0, 2.0)
        with pytest.raises(ValidationError):
            ln_q("0.5", 2.0)


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
        with pytest.raises(ValidationError):
            legacy_Ln("0.5", params)
        with pytest.raises(ValidationError):
            legacy_u(True, params)

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
