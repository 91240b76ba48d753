"""Tests for the generalized entropy family.

Brute-force oracles below evaluate the defining sums term by term with
plain ** powers, independently of the library's expm1-based path.
"""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from entrokit import (
    Channel,
    DeformParams,
    ParamError,
    apply_channel,
    conditional_entropy,
    conditional_entropy3,
    divergence,
    divergence_literal,
    entropy,
    entropy_literal,
    joint_entropy,
    kl_divergence,
    log_sum_gap,
    make_channel,
    make_distribution,
    make_joint2,
    make_joint3,
    mutual_divergence,
    mutual_entropy,
    product,
    sample_distribution,
    shannon_entropy,
    tsallis_divergence,
    tsallis_entropy,
)

from entrokit import distributions
from entrokit.deformed_log import K_MIN
from entrokit.distributions import _LEAF, _tiles
from entrokit.entropy import (
    _conditional_rows,
    _entropy_literal_rows,
    _entropy_rows,
    _shannon_rows,
    _spec_axes,
    _tsallis_entropy_rows,
)

PARAMS = DeformParams(0.3, 0.8)


def brute_lnkr(x, k, r):
    return (x**k - x**-k) / (2 * k * x**r)


def brute_entropy(pvec, k, r):
    total = 0.0
    for p in pvec:
        if p > 0:
            total -= p ** (r + k + 1) * brute_lnkr(p, k, r)
    return total


def brute_conditional(mat, k, r):
    total = 0.0
    for row in np.asarray(mat):
        px = row.sum()
        if px <= 0:
            continue
        inner = 0.0
        for c in row / px:
            if c > 0:
                inner -= c ** (r + k + 1) * brute_lnkr(c, k, r)
        total += px ** (2 * k + 1) * inner
    return total


class TestEntropy:
    def test_degenerate_is_zero(self):
        assert entropy(make_distribution([1.0, 0.0, 0.0]), PARAMS).value == 0.0

    def test_uniform_closed_form(self):
        # uniform(n): S = (1 - n^{-2k}) / (2k)
        d = make_distribution([0.25] * 4)
        assert entropy(d, DeformParams(0.25, 1.0)).value == pytest.approx(
            1.0, rel=1e-14
        )
        for n in (2, 3, 8, 16):
            for k in (0.1, 0.3, 0.5):
                val = entropy(
                    make_distribution([1.0 / n] * n), DeformParams(k, 1.0)
                ).value
                assert val == pytest.approx(
                    (1 - n ** (-2 * k)) / (2 * k), rel=1e-13
                )

    def test_half_half(self):
        assert entropy(
            make_distribution([0.5, 0.5]), DeformParams(0.5, 1.0)
        ).value == pytest.approx(0.5, rel=1e-14)

    def test_against_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = sample_distribution(int(rng.integers(1, 17)), rng)
            k = float(rng.uniform(0.05, 0.5))
            r = float(rng.uniform(0.1, 2.0))
            val = entropy(d, DeformParams(k, r)).value
            assert val == pytest.approx(brute_entropy(d.p, k, r), rel=1e-11, abs=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            d = sample_distribution(int(rng.integers(1, 17)), rng)
            k = float(rng.uniform(0.01, 0.5))
            assert entropy(d, DeformParams(k, 1.0)).value >= 0.0

    def test_literal_matches_canonical(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            d = sample_distribution(int(rng.integers(1, 17)), rng)
            params = DeformParams(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0))
            )
            assert entropy_literal(d, params) == pytest.approx(
                entropy(d, params).value, rel=1e-12, abs=1e-14
            )

    def test_r_independence(self):
        d = make_distribution([0.2, 0.3, 0.5])
        k = 0.3
        vals = [entropy(d, DeformParams(k, r)).value for r in (0.1, 0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) == 0.0
        lits = [entropy_literal(d, DeformParams(k, r)) for r in (0.1, 0.5, 1.0, 2.0)]
        assert max(lits) - min(lits) <= 1e-12 * (1 + abs(lits[0]))

    def test_float_protocol(self):
        assert float(entropy(make_distribution([1.0]), PARAMS)) == 0.0

    def test_permutation_within_summation_bound(self):
        # entropy sums pairwise, so a permutation may move the last bits,
        # but never by more than n * eps * S (the terms are >= 0)
        rng = np.random.default_rng(34)
        eps = np.finfo(float).eps
        for _ in range(500):
            n = int(rng.integers(1, 4097))
            d = sample_distribution(n, rng)
            value = entropy(d, PARAMS).value
            permuted = entropy(make_distribution(rng.permutation(d.p)), PARAMS).value
            assert abs(permuted - value) <= n * eps * value


class TestJointEntropy:
    def test_degenerate_product(self):
        j = product(make_distribution([1.0, 0.0]), make_distribution([1.0, 0.0]))
        assert joint_entropy(j, PARAMS).value == 0.0

    def test_uniform_2x2(self):
        j = make_joint2(np.full((2, 2), 0.25))
        assert joint_entropy(j, DeformParams(0.5, 1.0)).value == pytest.approx(
            0.75, rel=1e-14
        )

    def test_equals_flattened_entropy(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            cells = make_distribution(j.p.ravel())
            assert joint_entropy(j, PARAMS).value == entropy(cells, PARAMS).value

    def test_joint3(self):
        t = sample_distribution((3, 2, 4), seed=6)
        cells = make_distribution(t.p.ravel())
        assert joint_entropy(t, PARAMS).value == entropy(cells, PARAMS).value


# every "<of>_given_<given>" spec of a 3-axis joint, each part in every order
SPECS3 = [
    f"{''.join(axes[:n])}_given_{''.join(axes[n:])}"
    for n, m in ((1, 1), (1, 2), (2, 1))
    for axes in itertools.permutations("XYZ", n + m)
]


def whole_joint_conditional(p, spec, k) -> float:
    """conditional_entropy of the joint p evaluated at once: other axes summed
    out, the given and of axes moved to the front and the back and copied
    to a C-ordered matrix, its row masses summed, zero-mass rows compressed
    away, then the terms of each row."""
    of, given = _spec_axes(spec, p.ndim)
    kept = sorted(of + given)
    rest = tuple(a for a in range(p.ndim) if a not in kept)
    t = (p.sum(axis=rest) if rest else p).transpose([kept.index(a) for a in given + of])
    mat = np.ascontiguousarray(t.reshape(math.prod(t.shape[: len(given)]), -1))
    mass = mat.sum(axis=1)
    live = mass > 0
    if not live.all():
        mat, mass = mat[live], mass[live]
    c = mat / mass[:, np.newaxis]
    t = np.log(c, out=np.zeros_like(c), where=c > 0)
    t *= 2.0 * k
    np.expm1(t, out=t)
    t *= c
    t /= -2.0 * k
    return float((np.power(mass, 2.0 * k + 1.0) * t.sum(axis=1)).sum())


class TestConditionalEntropy:
    def test_degenerate_target(self):
        j = product(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]))
        assert conditional_entropy(j, PARAMS, "Y_given_X").value == 0.0

    def test_product_uniform(self):
        j = product(make_distribution([0.5, 0.5]), make_distribution([0.5, 0.5]))
        val = conditional_entropy(j, DeformParams(0.5, 1.0), "Y_given_X").value
        assert val == pytest.approx(0.25, rel=1e-14)

    def test_against_brute_force(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            k = float(rng.uniform(0.05, 0.5))
            r = float(rng.uniform(0.1, 2.0))
            val = conditional_entropy(j, DeformParams(k, r), "Y_given_X").value
            assert val == pytest.approx(brute_conditional(j.p, k, r), rel=1e-11, abs=1e-13)
            val_t = conditional_entropy(j, DeformParams(k, r), "X_given_Y").value
            assert val_t == pytest.approx(
                brute_conditional(j.p.T, k, r), rel=1e-11, abs=1e-13
            )

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("spec", ["Y_given_X", "X_given_Y"])
    def test_blocks_equal_whole_matrix(self, spec, k):
        # 300 x 1000 cells: either spec's rows span several blocks of about
        # _LEAF cells; the reference evaluates the matrix at once
        rng = np.random.default_rng(54)
        w = rng.exponential(size=(300, 1000))
        w[rng.random(w.shape) < 0.05] = 0.0
        w[7] = 0.0  # a zero-mass row for Y_given_X
        j = make_joint2(w / w.sum())
        assert j.p.size > 8 * _LEAF
        got = conditional_entropy(j, DeformParams(k, 0.7), spec).value
        assert got.hex() == whole_joint_conditional(j.p, spec, k).hex()

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("spec", SPECS3)
    def test_blocks_equal_whole_joint3(self, spec, empty, k):
        # 3 x 300 x 200 cells, with or without an empty slice along each
        # axis: specs that move an axis copy their blocks, the others run
        # over views, and a row spans part of a block (Y_given_XZ) or more
        # than one (ZY_given_X)
        rng = np.random.default_rng(55)
        w = rng.exponential(size=(3, 300, 200))
        w[rng.random(w.shape) < 0.05] = 0.0
        if empty:
            w[1], w[:, 7], w[:, :, 11] = 0.0, 0.0, 0.0
        j = make_joint3(w / w.sum())
        got = conditional_entropy(j, DeformParams(k, 0.7), spec).value
        assert got.hex() == whole_joint_conditional(j.p, spec, k).hex()

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("spec", ["YZ_given_X", "ZY_given_X"])
    def test_long_rows_equal_whole_joint3(self, spec, empty, k):
        # rows of 120000 cells, longer than one run of the pairwise tree:
        # each is summed run by run, from a view (YZ) or from copies of one
        # run at a time (ZY), and must still be the whole joint's value
        rng = np.random.default_rng(56)
        w = rng.exponential(size=(3, 300, 400))
        w[rng.random(w.shape) < 0.05] = 0.0
        if empty:
            w[1] = 0.0
        j = make_joint3(w / w.sum())
        assert j.p[0].size > 3 * _LEAF
        got = conditional_entropy(j, DeformParams(k, 0.7), spec).value
        assert got.hex() == whole_joint_conditional(j.p, spec, k).hex()

    def test_chain_rule(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            j = sample_distribution((int(rng.integers(1, 17)), int(rng.integers(1, 17))), rng)
            params = DeformParams(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0))
            )
            lhs = joint_entropy(j, params).value
            rhs = (
                entropy(j.marginal_x(), params).value
                + conditional_entropy(j, params, "Y_given_X").value
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            params = DeformParams(float(rng.uniform(0.05, 0.5)), 1.0)
            sy = entropy(j.marginal(1), params).value
            assert conditional_entropy(j, params, "Y_given_X").value <= sy + 1e-12

    def test_independence_rule(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            p = sample_distribution(int(rng.integers(1, 9)), rng)
            q = sample_distribution(int(rng.integers(1, 9)), rng)
            k = float(rng.uniform(0.05, 0.5))
            params = DeformParams(k, 1.0)
            sx, sy = entropy(p, params).value, entropy(q, params).value
            lhs = conditional_entropy(product(p, q), params, "Y_given_X").value
            assert lhs == pytest.approx(sy - 2 * k * sx * sy, rel=1e-12, abs=1e-12)

    def test_bad_direction(self):
        j = sample_distribution((2, 2), seed=1)
        with pytest.raises(ParamError):
            conditional_entropy(j, PARAMS, "Z_given_X")

    def test_iterated_chain_rule_four_variables(self):
        # S(X1..X4) = sum_i S(Xi | X_{i-1}..X1), built by flattening the
        # conditioning prefix into one variable at each step
        rng = np.random.default_rng(55)
        dims = (2, 3, 2, 3)
        cells = rng.exponential(size=dims)
        cells /= cells.sum()
        params = DeformParams(0.3, 1.2)
        total = entropy(make_distribution(cells.ravel()), params).value
        accumulated = 0.0
        for i in range(len(dims)):
            prefix = int(np.prod(dims[:i])) if i else 1
            rest = int(np.prod(dims[i + 1:])) if i + 1 < len(dims) else 1
            mat = cells.reshape(prefix, dims[i], rest).sum(axis=2)
            accumulated += conditional_entropy(
                make_joint2(mat), params, "Y_given_X"
            ).value
        assert total == pytest.approx(accumulated, rel=1e-12, abs=1e-12)


class TestConditionalEntropy3:
    def test_fully_degenerate(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        j = make_joint3(t)
        for mode in ("XY_given_Z", "Y_given_XZ", "X_given_Z", "Y_given_Z"):
            assert conditional_entropy3(j, PARAMS, mode).value == 0.0

    def test_corollary_closures(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
            t = sample_distribution(dims, rng)
            params = DeformParams(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0))
            )
            sxyz = joint_entropy(t, params).value
            sz = entropy(t.marginal(2), params).value
            sxy_z = conditional_entropy3(t, params, "XY_given_Z").value
            assert sxyz == pytest.approx(sxy_z + sz, rel=1e-12, abs=1e-12)
            sx_z = conditional_entropy3(t, params, "X_given_Z").value
            sy_xz = conditional_entropy3(t, params, "Y_given_XZ").value
            assert sxy_z == pytest.approx(sx_z + sy_xz, rel=1e-12, abs=1e-12)

    def test_pair_conditionals_reduce_to_two_variable_form(self):
        t = sample_distribution((3, 4, 2), seed=62)
        # X|Z on the (x, z) pair joint with conditioning on the second axis
        pair_xz = t.marginal(0, 2)
        assert conditional_entropy3(t, PARAMS, "X_given_Z").value == pytest.approx(
            conditional_entropy(pair_xz, PARAMS, "X_given_Y").value, rel=1e-14
        )

    def test_z_given_xy_brute_force(self):
        # rows are the (x, y) cells in row-major order, columns are z
        rng = np.random.default_rng(63)
        for _ in range(20):
            dims = tuple(int(rng.integers(1, 6)) for _ in range(3))
            t = sample_distribution(dims, rng)
            k = float(rng.uniform(0.05, 0.5))
            r = float(rng.uniform(0.1, 2.0))
            val = conditional_entropy(t, DeformParams(k, r), "Z_given_XY").value
            expected = brute_conditional(t.p.reshape(dims[0] * dims[1], dims[2]), k, r)
            assert val == pytest.approx(expected, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (5, 3), (2, 3, 4), (4, 1, 6)])
    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 100])
    def test_boxes_tile_the_grid_in_order(self, shape, rows):
        flat = np.arange(math.prod(shape)).reshape(shape)
        stops = [0]
        for start, stop, index in _tiles(shape, rows):
            assert start == stops[-1] and 0 < stop - start <= rows
            assert flat[index].ravel().tolist() == list(range(start, stop))
            stops.append(stop)
        assert stops[-1] == flat.size

    @pytest.mark.parametrize(
        "spec", ["X_given_X", "XY_given_Y", "_given_X", "W_given_X", "X_given_", "XZ", 3]
    )
    def test_malformed_specs_rejected(self, spec):
        t = sample_distribution((2, 2, 2), seed=1)
        with pytest.raises(ParamError):
            conditional_entropy(t, PARAMS, spec)


class TestMutualEntropy:
    def test_product_value(self):
        j = product(make_distribution([0.5, 0.5]), make_distribution([0.5, 0.5]))
        assert mutual_entropy(j, DeformParams(0.5, 1.0)) == pytest.approx(
            0.25, rel=1e-13
        )

    def test_degenerate(self):
        j = product(make_distribution([1.0]), make_distribution([1.0]))
        assert mutual_entropy(j, PARAMS) == 0.0

    def test_diagonal_joint(self):
        j = make_joint2([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_entropy(j, DeformParams(0.5, 1.0)) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_equals_entropy_drop(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            params = DeformParams(float(rng.uniform(0.05, 0.5)), 1.0)
            lhs = mutual_entropy(j, params)
            rhs = (
                entropy(j.marginal(1), params).value
                - conditional_entropy(j, params, "Y_given_X").value
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestAdditivityRules:
    def test_pseudo_additivity_on_products(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            p = sample_distribution(int(rng.integers(1, 9)), rng)
            q = sample_distribution(int(rng.integers(1, 9)), rng)
            k = float(rng.uniform(0.05, 0.5))
            params = DeformParams(k, 1.0)
            sx, sy = entropy(p, params).value, entropy(q, params).value
            sxy = joint_entropy(product(p, q), params).value
            assert sxy == pytest.approx(sx + sy - 2 * k * sx * sy, rel=1e-12, abs=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            params = DeformParams(float(rng.uniform(0.05, 0.5)), 1.0)
            sx = entropy(j.marginal_x(), params).value
            sy = entropy(j.marginal(1), params).value
            assert joint_entropy(j, params).value <= sx + sy + 1e-12

    def test_joint_dominates_marginal(self):
        rng = np.random.default_rng(84)
        for _ in range(100):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            params = DeformParams(float(rng.uniform(0.05, 0.5)), 1.0)
            sx = entropy(j.marginal_x(), params).value
            assert joint_entropy(j, params).value >= sx - 1e-12

    def test_strong_subadditivity(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            dims = tuple(int(rng.integers(1, 6)) for _ in range(3))
            t = sample_distribution(dims, rng)
            params = DeformParams(float(rng.uniform(0.05, 0.5)), 1.0)
            sxz = joint_entropy(t.marginal(0, 2), params).value
            syz = joint_entropy(t.marginal(1, 2), params).value
            sxyz = joint_entropy(t, params).value
            sz = entropy(t.marginal(2), params).value
            assert sxyz + sz <= sxz + syz + 1e-12


class TestReferenceEntropies:
    def test_shannon_uniform(self):
        assert shannon_entropy(make_distribution([0.5, 0.5])) == pytest.approx(
            math.log(2), rel=1e-14
        )

    def test_tsallis_uniform(self):
        assert tsallis_entropy(make_distribution([0.5, 0.5]), 2.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_tsallis_reduction(self):
        rng = np.random.default_rng(91)
        for q in (1.2, 1.5, 2.0):
            params = DeformParams((q - 1) / 2, (q - 1) / 2)
            for _ in range(20):
                d = sample_distribution(int(rng.integers(1, 17)), rng)
                assert entropy(d, params).value == pytest.approx(
                    tsallis_entropy(d, q), rel=1e-12, abs=1e-13
                )

    def test_shannon_limit(self):
        rng = np.random.default_rng(92)
        params = DeformParams(1e-4, 1e-4)
        for _ in range(50):
            d = sample_distribution(int(rng.integers(2, 17)), rng)
            ref = shannon_entropy(d)
            assert abs(entropy(d, params).value - ref) <= 1e-3 * (1 + ref)

    def test_shannon_limit_at_k_floor(self):
        # the smallest accepted k still reproduces Shannon to rounding
        d = make_distribution([0.2, 0.3, 0.5])
        value = entropy(d, DeformParams(K_MIN, 1.0)).value
        assert value == pytest.approx(shannon_entropy(d), rel=1e-14)

    def test_tsallis_fraction_parameter(self):
        d = make_distribution([0.2, 0.3, 0.5])
        assert tsallis_entropy(d, Fraction(3, 2)).hex() == tsallis_entropy(d, 1.5).hex()

    def test_tsallis_rejects_q_one(self):
        d = make_distribution([0.5, 0.5])
        for q in (1.0, float("nan"), "2", False):
            with pytest.raises(ParamError):
                tsallis_entropy(d, q)


def _scattered(a, rng, extra):
    """a with `extra` cells of 0 added along each axis at random places: zero
    cells between its cells and after the last one, and rows and slices of
    0 in a joint."""
    at = [np.sort(rng.choice(n + extra - 1, n, replace=False)) for n in a.shape]
    out = np.zeros(tuple(n + extra for n in a.shape))
    out[np.ix_(*at)] = a
    return out


def _one_cell_rows(shape, rng):
    """A joint whose every row (the last axis) holds its mass in one cell."""
    a = np.zeros(shape)
    rows = a.reshape(-1, shape[-1])
    cell = rng.integers(shape[-1], size=len(rows))
    rows[np.arange(len(rows)), cell] = rng.uniform(1.0, 2.0, len(rows))
    return a / a.sum()


# Every entropy-type sum: its batched evaluator, and its public function
ROW_SUMS = {
    "entropy": (lambda p: _entropy_rows(p, PARAMS.k), lambda d: entropy(d, PARAMS).value),
    "entropy_literal": (lambda p: _entropy_literal_rows(p, PARAMS),
                        lambda d: entropy_literal(d, PARAMS)),
    "shannon_entropy": (_shannon_rows, shannon_entropy),
    **{f"tsallis_entropy q={q}": (lambda p, q=q: _tsallis_entropy_rows(p, q),
                                  lambda d, q=q: tsallis_entropy(d, q)) for q in (0.5, 1.5, 3.0)},
}


class TestZeroCellRule:
    """A cell with p = 0 adds 0 to every entropy-type sum (_cell_terms): the
    batched evaluators, run on rows with zero cells between and after the
    live ones, give the public value of the live cells alone, within the
    n * eps * S bound of a regrouped pairwise sum of terms >= 0."""

    @pytest.mark.parametrize("name", ROW_SUMS)
    def test_row_sums(self, name):
        rows, public = ROW_SUMS[name]
        rng, eps = np.random.default_rng(35), np.finfo(float).eps
        for n in (1, 2, 9, 300, 20000):  # 20000 live cells pad to a row of runs
            ds = [sample_distribution(n, rng) for _ in range(3)]
            cells = (*(d.p for d in ds), _one_cell_rows((n,), rng))
            batch = np.stack([_scattered(a, rng, n + 5) for a in cells])
            got = rows(batch)[:, 0]
            for value, d in zip(got, ds):
                want = float(public(d))
                assert abs(value - want) <= batch.shape[1] * eps * want, (n, value, want)
            assert got[-1] == 0.0  # all the mass on one cell

    @pytest.mark.parametrize("shape, spec", [
        ((5, 7), "Y_given_X"),
        ((4, 3, 6), "Z_given_XY"),
        ((2, 33000), "Y_given_X"),  # a padded row longer than _LEAF is summed run by run
    ])
    def test_conditional_rows(self, shape, spec):
        rng, eps = np.random.default_rng(36), np.finfo(float).eps
        js = [sample_distribution(shape, rng) for _ in range(3)]
        joints = (*(j.p for j in js), _one_cell_rows(shape, rng))
        batch = np.stack([_scattered(a, rng, 3) for a in joints])
        got = _conditional_rows(batch, PARAMS.k, len(shape) - 1)[:, 0]
        for value, j in zip(got, js):
            want = conditional_entropy(j, PARAMS, spec).value
            assert abs(value - want) <= batch[0].size * eps * want, (value, want)
        assert got[-1] == 0.0


def _reversed_strided(a):
    """An array equal to a that is neither C- nor Fortran-contiguous: its
    axes stored in reverse order, every other cell."""
    every = (slice(None, None, 2),) * a.ndim
    wide = np.zeros(tuple(2 * n for n in reversed(a.shape)))
    wide[every] = a.T
    return wide[every].T


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": _reversed_strided}


def _public_values(p, q, w, a, b) -> dict:
    """Every public value of the 3-axis joints p and q (q > 0), of their
    (X, YZ) matrices a and b as arrays, and of the channel w, bits included."""
    j, jq = make_joint2(a), make_joint2(b)
    values = {
        "shannon_entropy": shannon_entropy(p),
        "kl_divergence": kl_divergence(p, q),
        "apply_channel": apply_channel(w, p.marginal(1)).p,
        "product": product(j.marginal(0), j.marginal(1)).p,
    }
    for axes in itertools.chain.from_iterable(
        itertools.permutations(range(3), n) for n in (1, 2, 3)
    ):
        values[f"marginal {axes}"] = p.marginal(*axes).p
    for k in (0.1, 0.5):
        params = DeformParams(k, 0.7)
        values[f"entropy {k}"] = entropy(p, params).value
        values[f"entropy_literal {k}"] = entropy_literal(p, params)
        values[f"tsallis_entropy {k}"] = tsallis_entropy(p, 1.0 + 2.0 * k)
        values[f"mutual_entropy {k}"] = mutual_entropy(j, params)
        values[f"divergence {k}"] = divergence(p, q, params).value
        for form in ("pq", "qp"):
            values[f"divergence_literal {form} {k}"] = divergence_literal(p, q, params, form)
        values[f"tsallis_divergence {k}"] = tsallis_divergence(p, q, 1.0 - 2.0 * k)
        values[f"mutual_divergence {k}"] = mutual_divergence(j, params).value
        values[f"divergence 2-axis {k}"] = divergence(j, jq, params).value
        values[f"log_sum_gap {k}"] = log_sum_gap(b, b[::-1], params)
        for spec in SPECS3:
            values[f"{spec} {k}"] = conditional_entropy(p, params, spec).value
    for d in (p, q, j, jq):
        assert d.p.flags.c_contiguous
    assert w.w.flags.c_contiguous
    for v in values.values():
        assert not isinstance(v, np.ndarray) or v.flags.c_contiguous
    return {key: np.asarray(v).tobytes() for key, v in values.items()}


def test_every_value_depends_on_the_numbers_alone(monkeypatch):
    # one joint, one positive joint and one channel, each in C, Fortran and
    # reversed-strided copies, and the weights they are normalized from, at
    # block sizes 2^8, 2^11 and 2^15: (6, 40, 50) cells make rows longer
    # than a block, rows that share one, and divergence rows summed run by
    # run; the zero cells and the empty slices make masks and rows to drop
    rng = np.random.default_rng(71)
    w = rng.exponential(size=(6, 40, 50))
    w[rng.random(w.shape) < 0.05] = 0.0
    w[2], w[:, 5], w[:, :, 9] = 0.0, 0.0, 0.0
    wq = rng.exponential(size=w.shape)
    wc = rng.exponential(size=(7, 40))
    cells, positive, channel = w / w.sum(), wq / wq.sum(), wc / wc.sum(axis=0)
    leaf_modules = [
        m for name, m in sys.modules.items()
        if name.split(".")[0] == "entrokit" and hasattr(m, "_LEAF")
    ]
    assert distributions in leaf_modules
    want = None
    for leaf in (1 << 8, 1 << 11, 1 << 15):
        for m in leaf_modules:
            monkeypatch.setattr(m, "_LEAF", leaf)
        for name, layout in LAYOUTS.items():
            p, q = make_joint3(layout(cells)), make_joint3(layout(positive))
            a, b = (layout(x.reshape(6, -1)) for x in (cells, positive))
            got = _public_values(p, q, Channel(layout(channel)), a, b)
            got["make_joint3 normalize"] = make_joint3(layout(w), normalize=True).p.tobytes()
            got["make_channel normalize"] = make_channel(layout(wc), normalize=True).w.tobytes()
            if want is None:
                want = got
            moved = [key for key in want if got[key] != want[key]]
            assert not moved, f"{len(moved)} moved at _LEAF = {leaf}, {name}: {moved[:5]}"
