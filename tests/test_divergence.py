"""Tests for the generalized relative entropy and its order properties."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from entrokit import (
    AbsoluteContinuityError,
    Channel,
    DeformParams,
    DimensionError,
    Distribution,
    DomainError,
    ParamError,
    ValidationError,
    apply_channel,
    divergence,
    divergence_literal,
    kl_divergence,
    log_sum_gap,
    make_channel,
    make_distribution,
    make_joint2,
    mix,
    mutual_divergence,
    product,
    sample_channel,
    sample_distribution,
    tsallis_divergence,
)
from entrokit import distributions
from entrokit.deformed_log import ln_kr, ln_q
from entrokit.distributions import _LEAF, _leaves
from entrokit.divergence import _EXACT_MIN, _fsum_rows, _positive_terms

PARAMS = DeformParams(0.25, 1.0)


def brute_lnkr(x, k, r):
    return (x**k - x**-k) / (2 * k * x**r)


def brute_divergence(pvec, qvec, k, r):
    total = 0.0
    for p, q in zip(pvec, qvec):
        if p > 0:
            t = p / q
            total += p * t ** (r - k) * brute_lnkr(t, k, r)
    return total


def _pair(rng, n):
    return sample_distribution(n, rng), sample_distribution(n, rng)


class TestDivergenceValues:
    def test_self_divergence_zero_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = sample_distribution(int(rng.integers(1, 17)), rng)
            assert divergence(p, p, PARAMS).value == 0.0

    def test_frozen_example(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([0.25, 0.75])
        assert divergence(p, q, PARAMS).value == pytest.approx(
            0.06814834742186343, rel=1e-13
        )

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q = _pair(rng, int(rng.integers(1, 17)))
            k = float(rng.uniform(0.05, 0.5))
            r = float(rng.uniform(0.1, 2.0))
            val = divergence(p, q, DeformParams(k, r)).value
            assert val == pytest.approx(
                brute_divergence(p.p, q.p, k, r), rel=1e-11, abs=1e-13
            )

    def test_matched_zeros_extension(self):
        p = make_distribution([0.7, 0.3, 0.0])
        q = make_distribution([0.6, 0.4, 0.0])
        full = divergence(
            make_distribution([0.7, 0.3]), make_distribution([0.6, 0.4]), PARAMS
        )
        ext = divergence(p, q, PARAMS)
        assert ext.value == full.value
        assert full.support_flag == "full"
        assert ext.support_flag == "extended"

    def test_absolute_continuity_error(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 0.0])
        with pytest.raises(AbsoluteContinuityError, match=r"q\[1\] = 0"):
            divergence(p, q, PARAMS)
        jp = make_joint2([[0.5, 0.0], [0.25, 0.25]])
        jq = make_joint2([[0.5, 0.5], [0.0, 0.0]])
        for check in (
            lambda: divergence(jp, jq, PARAMS),
            lambda: divergence_literal(jp, jq, PARAMS),
            lambda: kl_divergence(jp, jq),
            lambda: tsallis_divergence(jp, jq, 0.5),
        ):
            with pytest.raises(AbsoluteContinuityError, match=r"q\[1, 0\] = 0"):
                check()

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            divergence(make_distribution([1.0]), make_distribution([0.5, 0.5]), PARAMS)
        with pytest.raises(DimensionError):
            divergence(
                make_joint2([[0.5, 0.5]]), make_distribution([0.5, 0.5]), PARAMS
            )

    def test_joint_pair_equals_cell_pair(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            shape = tuple(int(s) for s in rng.integers(1, 5, size=3))
            p = sample_distribution(shape, rng)
            q = sample_distribution(shape, rng)
            cells = divergence(
                make_distribution(p.p.ravel()), make_distribution(q.p.ravel()), PARAMS
            )
            assert divergence(p, q, PARAMS) == cells

    def test_boundary_k_half_degenerates(self):
        params = DeformParams(0.5, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, q = _pair(rng, 6)
            assert divergence(p, q, params).value == pytest.approx(0.0, abs=1e-15)
        # extended support: the p=0 tail contributes -q, still totalling 0
        p = make_distribution([1.0, 0.0])
        q = make_distribution([0.5, 0.5])
        assert divergence(p, q, params).value == pytest.approx(0.0, abs=1e-15)

    def test_zero_p_entries_finite_for_small_k(self):
        p = make_distribution([0.0, 1.0])
        q = make_distribution([0.5, 0.5])
        val = divergence(p, q, DeformParams(0.25, 1.0)).value
        # only the p > 0 term contributes: (1 - 0.5^{0.5}) / 0.5
        assert val == pytest.approx((1 - 0.5**0.5) / 0.5, rel=1e-13)

    def test_zero_p_entries_rejected_beyond_half(self):
        p = make_distribution([0.0, 1.0])
        q = make_distribution([0.5, 0.5])
        with pytest.raises(DomainError):
            divergence(p, q, DeformParams(0.75, 1.0, relaxed=True))

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_every_divergence_sum_shares_the_zero_p_rule(self, r):
        # a cell with p = 0 < q adds -q at k = 1/2 to the literal forms and to
        # the Tsallis reference at q = 1 - 2k = 0, as it does to divergence
        p = make_distribution([0.5, 0.5, 0.0])
        q = make_distribution([0.25, 0.25, 0.5])
        want = divergence(p, q, DeformParams(0.5, r)).value
        for got in (divergence_literal(p, q, DeformParams(0.5, r), "pq"),
                    divergence_literal(p, q, DeformParams(0.5, r), "qp"),
                    tsallis_divergence(p, q, 0.0)):
            assert abs(got - want) <= 1e-15
        # beyond k = 1/2 (q < 0) each of them diverges there
        relaxed = DeformParams(0.7, r, relaxed=True)
        for form in ("pq", "qp"):
            with pytest.raises(DomainError):
                divergence_literal(p, q, relaxed, form)
        with pytest.raises(DomainError):
            tsallis_divergence(p, q, -0.4)

    def test_nonnegativity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, q = _pair(rng, int(rng.integers(1, 17)))
            k = float(rng.uniform(0.01, 0.5))
            assert divergence(p, q, DeformParams(k, 1.0)).value >= -1e-12

    def test_float_protocol(self):
        p = make_distribution([0.5, 0.5])
        assert float(divergence(p, p, PARAMS)) == 0.0


# widths at the edges of the runs of _leaves: one run, two, and a row
# whose runs are cut off the multiples of _LEAF
RUN_EDGES = [_LEAF - 1, _LEAF + 1, 3 * _LEAF + 7]


def test_run_edges_cut_off_the_multiples_of_leaf():
    assert [len([*_leaves(w)]) for w in RUN_EDGES] == [1, 2, 4]
    assert any(stop % _LEAF for _, stop in [*_leaves(RUN_EDGES[2])][:-1])


class TestExactSum:
    """_fsum_rows is math.fsum bit for bit, sign of zero included, on both
    sides of _EXACT_MIN and on rows of several runs."""

    @staticmethod
    def _assert_fsum(rows):
        want = [math.fsum(r).hex() for r in rows.tolist()]
        assert [v.hex() for v in _fsum_rows(rows)[:, 0].tolist()] == want

    @pytest.mark.parametrize("width", [_EXACT_MIN - 1, _EXACT_MIN, *RUN_EDGES, 1 << 20])
    def test_mixed_signs_across_exponent_range(self, width):
        rng = np.random.default_rng(width)
        rows = 1 if width > 4 * _EXACT_MIN else 3  # a batch where fsum is cheap
        # exponents from the subnormals up to 2^990, where a row of 2^20
        # cells still stays below the overflow guard
        wide = rng.integers(-1100, 990, (rows, width))
        self._assert_fsum(np.ldexp(rng.standard_normal((rows, width)), wide))
        self._assert_fsum(rng.standard_normal((rows, width)) * 1e-3)  # few exponents

    @pytest.mark.parametrize(
        "width", [_EXACT_MIN - 1, _EXACT_MIN, 3 * _EXACT_MIN + 5, *RUN_EDGES, 4 * _LEAF + 5]
    )
    def test_cancellation_subnormals_and_zeros(self, width):
        rng = np.random.default_rng(width)
        cancel = np.zeros(width)
        cancel[[0, 1, 2, width - 1]] = [1.0, 1e100, 1.0, -1e100]
        half = np.ldexp(rng.standard_normal(width // 2), rng.integers(-300, 300, width // 2))
        pairs = np.concatenate([half, -half, [0.0] * (width % 2)])
        tiny = rng.integers(-3, 4, width) * 5e-324
        signed_zeros = np.where(rng.random(width) < 0.5, -0.0, 0.0)
        late_zero = np.full(width, -0.0)  # -0.0 cells, then one +0.0 in the last run
        late_zero[-1] = 0.0
        rows = np.array(
            [cancel, rng.permutation(pairs), tiny, np.full(width, -0.0), signed_zeros, late_zero]
        )
        self._assert_fsum(rows)
        assert _fsum_rows(rows[:2])[:, 0].tolist() == [2.0, 0.0]

    @pytest.mark.parametrize(
        "width", [_EXACT_MIN - 1, _EXACT_MIN, *RUN_EDGES, 4 * _LEAF + 5]
    )
    def test_non_finite_rows_behave_as_fsum(self, width):
        # on rows of several runs, the special cells sit in the last one
        start = 0 if width <= _LEAF else width - 5

        def row(*head):
            r = np.zeros((1, width))
            r[0, start : start + len(head)] = head
            return r

        self._assert_fsum(row(1.0, math.inf))
        self._assert_fsum(row(1.0, -math.inf))
        self._assert_fsum(row(math.nan, 2.0))
        for head, error in (((math.inf, -math.inf), ValueError), ((1e308, 1e308, -1e308), OverflowError)):
            with pytest.raises(error) as want:
                math.fsum(row(*head)[0].tolist())
            with pytest.raises(error) as got:
                _fsum_rows(row(*head))
            assert str(got.value) == str(want.value)


    @pytest.mark.parametrize("width", [_EXACT_MIN, 3 * _LEAF + 7])
    def test_terms_at_the_top_of_the_float_range(self, width):
        # from 2^1000 up, a row goes to math.fsum as it is; just below, it
        # is sliced; the large terms sit in the last run
        rows = np.random.default_rng(width).standard_normal((3, width))
        rows[0, -1] = 2.0**1000
        rows[1, -1] = np.nextafter(2.0**1000, 0.0)
        rows[2, [-2, -1]] = 1e305, -1e305
        self._assert_fsum(rows)

    @pytest.mark.parametrize("width", [_EXACT_MIN, _LEAF + 1])
    def test_exact_ties_round_half_to_even(self, width):
        # the exact sums lie halfway between two doubles, the half ulp cut
        # into 256 pieces spread over the row; fsum rounds them to even
        rng = np.random.default_rng(width)

        def row(head, tie, *extra):
            r = np.zeros(width)
            cells = rng.choice(width, 257 + len(extra), replace=False)
            r[cells[0]] = head
            r[cells[1:257]] = tie / 256
            r[cells[257:]] = extra
            return r

        rows = np.array([
            row(1.0, 2.0**-53),  # to 1, not 1 + 2^-52
            row(1.0 + 2.0**-52, 2.0**-53),  # to 1 + 2^-51
            row(-1.0, -(2.0**-53)),
            row(1.0, 2.0**-53, 7.0, -7.0),  # larger terms that cancel
            row(1.0, 2.0**-53, 5e-324),  # just above the tie: up
        ])
        self._assert_fsum(rows)
        want = [1.0, 1.0 + 2.0**-51, -1.0, 1.0, 1.0 + 2.0**-52]
        assert _fsum_rows(rows)[:, 0].tolist() == want

    @pytest.mark.parametrize("width", [_EXACT_MIN, _LEAF + 1, 3 * _LEAF + 7])
    def test_one_nonzero_cell(self, width):
        values = [-1.5, 5e-324, 1e300, -math.pi]
        rows = np.zeros((len(values), width))
        rows[range(len(values)), [0, width - 1, width // 2, 1]] = values
        self._assert_fsum(rows)
        assert _fsum_rows(rows)[:, 0].tolist() == values

    def test_cancelling_pairs_across_runs(self):
        width = 4 * _LEAF + 5
        rng = np.random.default_rng(5)
        x = np.ldexp(rng.random(width // 2), rng.integers(-60, 60, width // 2))
        pairs = np.concatenate([x, -x * (1 + 1e-12), [0.0]])  # x and its partner runs apart
        self._assert_fsum(np.array([pairs, rng.permutation(pairs)]))


_DIVERGENCE = sys.modules["entrokit.divergence"]


@pytest.fixture(scope="module")
def bulk_inputs():
    """The seed-0 exponential simplices of 2^20 cells that the bulk
    benchmark draws: p, q and a 1024 x 1024 joint."""
    rng = np.random.default_rng(0)
    e = rng.exponential(size=(3, 1 << 20)) + 1e-300
    p, q, j = e / e.sum(axis=1, keepdims=True)
    return make_distribution(p), make_distribution(q), make_joint2(j.reshape(1024, 1024))


@pytest.mark.parametrize("k, r", [(0.1, 0.5), (0.25, 1.0), (0.4, 1.5)])
def test_bulk_runs_take_at_most_three_slices(bulk_inputs, k, r, monkeypatch):
    # the cost of a wide sum, as a count: the slices each run of its terms takes
    slices = []
    exact_parts = _DIVERGENCE._exact_parts

    def counted(chunks, rows):
        def each():
            for chunk in chunks:
                slices.extend(len(row) for row in exact_parts([chunk.copy()], rows))
                yield chunk

        return exact_parts(each(), rows)

    monkeypatch.setattr(_DIVERGENCE, "_exact_parts", counted)
    p, q, j = bulk_inputs
    params = DeformParams(k, r)
    divergence(p, q, params), kl_divergence(p, q), divergence_literal(p, q, params)
    mutual_divergence(j, params)
    assert len(slices) == 4 * len([*_leaves(1 << 20)])
    assert max(slices) <= 3

def _whole_row_terms(kind, p, q, params):
    """The terms of each divergence sum over one whole row, as the sums were
    evaluated before they were evaluated run by run: a cell with p = 0 adds
    0, or -q where the term's exponent (2k, and 1 - q = 2k for Tsallis) is 1."""
    k, r = params.k, params.r
    live = p > 0
    pv, qv = np.where(live, p, 1.0), np.where(live, q, 1.0)
    if kind == "kl":
        return p * (np.log(pv) - np.log(qv))
    if kind == "divergence":
        terms = _positive_terms(pv, qv, k)
    elif kind == "pq":
        terms = pv * np.power(pv / qv, r - k) * ln_kr(pv / qv, params)
    elif kind == "qp":
        terms = -pv * np.power(qv / pv, r + k) * ln_kr(qv / pv, params)
    else:
        terms = -pv * ln_q(qv / pv, 1.0 - 2.0 * k)
    return np.where(~live & (k == 0.5), -q, terms)


def _divergence_sums(p, q, params) -> dict:
    """The hex of each divergence sum of the pair."""
    return {
        "divergence": divergence(p, q, params).value.hex(),
        "kl": kl_divergence(p, q).hex(),
        "pq": divergence_literal(p, q, params, "pq").hex(),
        "qp": divergence_literal(p, q, params, "qp").hex(),
        "tsallis": tsallis_divergence(p, q, 1.0 - 2.0 * params.k).hex(),
    }


class TestChunkBoundaries:
    """Wide rows are evaluated and summed one run of _leaves at a time; each
    sum is still math.fsum of the whole row's terms, bit for bit, in any
    layout."""

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize(
        "width",
        [2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1, 6 * _LEAF + 7, *RUN_EDGES],
    )
    def test_sums_equal_fsum_of_whole_row_terms(self, width, k):
        rng = np.random.default_rng(width)
        a, b = rng.exponential(size=width), rng.exponential(size=width)
        # zero cells only from 40 cells before the row's last multiple of
        # 2 * _LEAF on (anywhere in a shorter row): p = 0 < q, which adds
        # -q at k = 1/2, and p = q = 0
        late = rng.choice(np.arange(width - width % (2 * _LEAF) - 40, width), 12, replace=False)
        a[late] = 0.0
        b[late[:4]] = 0.0
        p, q = make_distribution(a / a.sum()), make_distribution(b / b.sum())
        params = DeformParams(k, 0.7)
        for kind, value in _divergence_sums(p, q, params).items():
            want = math.fsum(_whole_row_terms(kind, p.p, q.p, params).tolist())
            assert value == want.hex(), kind

    @pytest.mark.parametrize("k", [0.1, 0.5])
    def test_fortran_pair_sums_equal_the_c_pair(self, k, monkeypatch):
        # a Fortran-ordered input is stored in C order, so a Fortran pair
        # and a mixed pair are summed as views, as the C pair is
        rng = np.random.default_rng(12)
        a, b = rng.exponential(size=(2, 384, 257))
        a[rng.random(a.shape) < 0.01] = 0.0
        b[(a == 0) & (rng.random(a.shape) < 0.5)] = 0.0
        c = [make_joint2(w / w.sum()) for w in (a, b)]
        f = [make_joint2(np.asfortranarray(w / w.sum())) for w in (a, b)]
        assert f[0].p.flags.c_contiguous and f[0].p.size > _LEAF
        copies = []
        copy_run = distributions._copy_run
        monkeypatch.setattr(
            distributions, "_copy_run", lambda a, *run: copies.append(run) or copy_run(a, *run)
        )
        params = DeformParams(k, 0.7)
        want = _divergence_sums(*c, params)
        assert _divergence_sums(*f, params) == want
        assert _divergence_sums(f[0], c[1], params) == want
        assert not copies


class TestSymmetriesAndStructure:
    def test_permutation_symmetry_exact(self):
        rng = np.random.default_rng(5)
        # the last size is summed by slicing, the others by fsum alone
        for n in [*rng.integers(2, 17, size=30).tolist(), 3 * _EXACT_MIN + 1]:
            p, q = _pair(rng, n)
            perm = rng.permutation(n)
            a = divergence(p, q, PARAMS).value
            b = divergence(
                Distribution(p.p[perm]), Distribution(q.p[perm]), PARAMS
            ).value
            assert a == b

    def test_zero_padding_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p, q = _pair(rng, 5)
            pe = Distribution(np.concatenate([p.p, [0.0, 0.0]]))
            qe = Distribution(np.concatenate([q.p, [0.0, 0.0]]))
            assert divergence(pe, qe, PARAMS).value == divergence(p, q, PARAMS).value

    def test_pseudo_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p1, q1 = _pair(rng, int(rng.integers(1, 9)))
            p2, q2 = _pair(rng, int(rng.integers(1, 9)))
            k = float(rng.uniform(0.05, 0.5))
            params = DeformParams(k, 1.0)
            d1 = divergence(p1, q1, params).value
            d2 = divergence(p2, q2, params).value
            d12 = divergence(product(p1, p2), product(q1, q2), params).value
            assert d12 == pytest.approx(d1 + d2 - 2 * k * d1 * d2, rel=1e-12, abs=1e-12)

    def test_joint_convexity(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            p1, q1 = _pair(rng, n)
            p2, q2 = _pair(rng, n)
            params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
            d1 = divergence(p1, q1, params).value
            d2 = divergence(p2, q2, params).value
            for lam in np.linspace(0, 1, 11):
                dm = divergence(mix(p1, p2, lam), mix(q1, q2, lam), params).value
                assert dm <= (1 - lam) * d1 + lam * d2 + 1e-12

    def test_information_monotonicity_random_channels(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 10))
            p, q = _pair(rng, n)
            w = sample_channel(m, n, rng)
            params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
            d_in = divergence(p, q, params).value
            d_out = divergence(apply_channel(w, p), apply_channel(w, q), params).value
            assert d_out <= d_in + 1e-12

    def test_information_monotonicity_partition_channel(self):
        # coarse-graining: merge outcomes {0,1} and {2,3}
        w = make_channel([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        rng = np.random.default_rng(10)
        for _ in range(20):
            p, q = _pair(rng, 4)
            d_in = divergence(p, q, PARAMS).value
            d_out = divergence(apply_channel(w, p), apply_channel(w, q), PARAMS).value
            assert d_out <= d_in + 1e-12

    def test_identity_channel_preserves(self):
        p, q = _pair(np.random.default_rng(11), 5)
        w = Channel(np.eye(5))
        assert divergence(apply_channel(w, p), apply_channel(w, q), PARAMS).value == (
            divergence(p, q, PARAMS).value
        )

    def test_definitional_equivalence(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            p, q = _pair(rng, int(rng.integers(1, 17)))
            params = DeformParams(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0))
            )
            a = divergence_literal(p, q, params, form="pq")
            b = divergence_literal(p, q, params, form="qp")
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            assert a == pytest.approx(divergence(p, q, params).value, rel=1e-11, abs=1e-12)

    def test_r_independence(self):
        rng = np.random.default_rng(13)
        p, q = _pair(rng, 8)
        k = 0.3
        vals = [divergence(p, q, DeformParams(k, r)).value for r in (0.1, 0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) == 0.0
        lits = [divergence_literal(p, q, DeformParams(k, r)) for r in (0.1, 0.5, 1.0, 2.0)]
        assert max(lits) - min(lits) <= 1e-12 * (1 + abs(lits[0]))

    def test_near_coincident_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = sample_distribution(n, rng)
            noise = rng.normal(size=n) * 1e-8
            noise -= noise.mean()
            q = Distribution((p.p + noise) / (p.p + noise).sum())
            d = divergence(p, q, DeformParams(0.25, 1.0)).value
            if d <= 1e-12:
                assert np.max(np.abs(p.p - q.p)) <= 1e-4


class TestLogSum:
    def test_equal_vectors(self):
        lhs, rhs = log_sum_gap([0.3, 0.7, 1.1], [0.3, 0.7, 1.1], PARAMS)
        assert lhs == 0.0 and rhs == 0.0

    def test_proportional_vectors(self):
        lhs, rhs = log_sum_gap([1.0, 1.0], [2.0, 2.0], PARAMS)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_strict_gap(self):
        lhs, rhs = log_sum_gap([1.0, 2.0], [2.0, 1.0], DeformParams(0.25, 0.75))
        assert lhs == pytest.approx(0.3431457505076198, rel=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-15)
        assert lhs > rhs

    def test_inequality_random(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            a = np.exp(rng.uniform(-3, 3, n))
            b = np.exp(rng.uniform(-3, 3, n))
            params = DeformParams(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0)))
            lhs, rhs = log_sum_gap(a, b, params)
            assert lhs >= rhs - 1e-12

    def test_errors(self):
        with pytest.raises(DimensionError):
            log_sum_gap([1.0], [1.0, 2.0], PARAMS)
        with pytest.raises(DomainError):
            log_sum_gap([1.0, 0.0], [1.0, 1.0], PARAMS)
        for empty in ([], np.zeros((2, 0))):
            with pytest.raises(DomainError, match="non-empty"):
                log_sum_gap(empty, empty, PARAMS)
        with pytest.raises(ValidationError):
            log_sum_gap("1", "2", PARAMS)

    @pytest.mark.parametrize("a, b", [
        ([1e308, 1e308], [1.0, 1.0]),  # the totals overflow in fsum
        ([1.0, 1.0], [1e308, 1e308]),
        ([1.7e308], [1.0]),  # the term overflows in numpy's divide
    ])
    def test_overflow_at_the_top_of_the_float_range(self, a, b):
        with pytest.raises(DomainError, match="overflows"):
            log_sum_gap(a, b, PARAMS)

    def test_two_axis_weights_match_their_ravel(self):
        a = [[1.0, 2.0], [0.5, 3.0]]
        b = [[2.0, 1.0], [1.5, 0.25]]
        flat = log_sum_gap(np.ravel(a), np.ravel(b), PARAMS)
        assert log_sum_gap(a, b, PARAMS) == flat
        row = log_sum_gap([[1, 2]], [[1, 2]], PARAMS)
        assert row == log_sum_gap([1, 2], [1, 2], PARAMS)


class TestReferenceDivergences:
    def test_kl_examples(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([0.25, 0.75])
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(p, q) == pytest.approx(0.14384103622589046, rel=1e-14)
        assert kl_divergence(p, q) == pytest.approx(
            0.5 * math.log(2) + 0.5 * math.log(2 / 3), rel=1e-13
        )

    def test_tsallis_reduction(self):
        rng = np.random.default_rng(16)
        for q_param in (0.5, 0.8):
            params = DeformParams((1 - q_param) / 2, (1 - q_param) / 2)
            for _ in range(20):
                p, q = _pair(rng, int(rng.integers(1, 17)))
                assert divergence(p, q, params).value == pytest.approx(
                    tsallis_divergence(p, q, q_param), rel=1e-12, abs=1e-13
                )

    def test_tsallis_reduction_relaxed_beyond_one(self):
        # q > 1 puts k = r = (1-q)/2 outside the strict domain
        q_param = 1.5
        params = DeformParams((1 - q_param) / 2, (1 - q_param) / 2, relaxed=True)
        rng = np.random.default_rng(17)
        p, q = _pair(rng, 6)
        assert divergence(p, q, params).value == pytest.approx(
            tsallis_divergence(p, q, q_param), rel=1e-12
        )

    def test_kl_limit(self):
        rng = np.random.default_rng(18)
        params = DeformParams(1e-4, 1e-4)
        for _ in range(50):
            p, q = _pair(rng, int(rng.integers(2, 17)))
            ref = kl_divergence(p, q)
            assert abs(divergence(p, q, params).value - ref) <= 1e-3 * (1 + ref)

    def test_tsallis_fraction_parameter(self):
        p = make_distribution([0.2, 0.3, 0.5])
        q = make_distribution([0.4, 0.4, 0.2])
        value = tsallis_divergence(p, q, Fraction(3, 2))
        assert value.hex() == tsallis_divergence(p, q, 1.5).hex()

    def test_tsallis_rejects_q_one(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([0.25, 0.75])
        for q_param in (1.0, float("nan"), False):
            with pytest.raises(ParamError):
                tsallis_divergence(p, q, q_param)


class TestMutualDivergence:
    def test_product_joint_zero(self):
        j = product(make_distribution([0.5, 0.5]), make_distribution([0.25, 0.75]))
        assert mutual_divergence(j, PARAMS).value == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_joint(self):
        j = make_joint2([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_divergence(j, PARAMS).value == pytest.approx(
            0.5857864376269049, rel=1e-13
        )

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            j = sample_distribution((int(rng.integers(1, 9)), int(rng.integers(1, 9))), rng)
            k = float(rng.uniform(0.05, 0.45))
            assert mutual_divergence(j, DeformParams(k, 1.0)).value >= -1e-12


def _built_product_result(j, params):
    """divergence(j, product of its marginals), the product built whole:
    mutual_divergence's reference, value or error."""
    try:
        d = divergence(j, product(j.marginal(0), j.marginal(1)), params)
        return d.value.hex(), d.support_flag
    except Exception as err:  # the error's type and message must match
        return type(err).__name__, str(err)


def _mutual_result(j, params):
    try:
        d = mutual_divergence(j, params)
        return d.value.hex(), d.support_flag
    except Exception as err:
        return type(err).__name__, str(err)


def _underflowing(shape, cell):
    """A joint whose cell p > 0 has a row and a column of that one cell, so
    the product of the marginals underflows to 0 there."""
    rng = np.random.default_rng(20)
    m = rng.exponential(size=shape)
    r, c = cell
    m[r, :], m[:, c] = 0.0, 0.0
    m[r, c] = 1e-200
    return m / m.sum()


MUTUAL_PARAMS = [
    DeformParams(0.1, 0.5),
    DeformParams(0.5, 1.0),
    DeformParams(0.7, 0.3, relaxed=True),
    DeformParams(-0.3, 0.3, relaxed=True),
]


class TestMutualDivergenceStreamed:
    """mutual_divergence makes the product of the marginals one run at a
    time; its values, support flags and errors are those of the divergence
    from the product built whole."""

    @pytest.mark.parametrize("shape", [(4, 5), (40, 30), (600, 700), (1024, 1024)])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_values_and_flags(self, shape, zeros):
        rng = np.random.default_rng(21)
        m = rng.exponential(size=shape)
        if zeros:
            m[rng.random(shape) < 0.2] = 0.0
        for layout in (np.ascontiguousarray, np.asfortranarray):
            j = make_joint2(layout(m / m.sum()))
            for params in MUTUAL_PARAMS:
                assert _mutual_result(j, params) == _built_product_result(j, params)

    @pytest.mark.parametrize("shape", [(4, 4), (600, 700)])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("also", ["", "zero p", "sum off"])
    def test_errors(self, shape, where, also):
        # a product that underflows under p > 0, alone, with a cell where
        # p = 0 < q (an error for k > 1/2), or with a product whose sum is
        # off by more than 1e-9 (a ValidationError, which comes first)
        cell = (2, 2) if where == "first" else (shape[0] - 2, shape[1] - 3)
        m = _underflowing(shape, cell)
        if also == "zero p":
            m[0, 1] = 0.0
            m /= m.sum()
        if also == "sum off":
            m *= 1 + 0.7e-9
        j = make_joint2(m)
        for params in MUTUAL_PARAMS:
            got = _mutual_result(j, params)
            assert got == _built_product_result(j, params)
            assert got[0] == ("ValidationError" if also == "sum off" else "AbsoluteContinuityError")


def _exponential_joint(shape, seed=23):
    return np.random.default_rng(seed).exponential(size=shape)


class TestMutualDivergenceOfPositiveProducts:
    """Where the product of the marginals is positive on the joint's support
    and, for k > 1/2, zero off it, mutual_divergence streams the product
    and checks only its sum; elsewhere it builds the product. Either way
    its values, flags and errors are those of the product built whole."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The arguments of each product() that mutual_divergence builds."""
        calls = []
        module = sys.modules["entrokit.divergence"]  # the package's divergence is the function
        real = module.product
        monkeypatch.setattr(module, "product", lambda *a: calls.append(a) or real(*a))
        return calls

    def _assert_parity(self, m):
        """(params, result) of each layout and params, asserting parity."""
        for layout in (np.ascontiguousarray, np.asfortranarray):
            j = make_joint2(layout(m))
            for params in MUTUAL_PARAMS:
                got = _mutual_result(j, params)
                assert got == _built_product_result(j, params)
                yield params, got

    @pytest.mark.parametrize("shape", [(4, 5), (600, 700)])
    @pytest.mark.parametrize(
        "delta", [-9.9e-10, -6e-10, -5e-10, -4.9e-10, 4.9e-10, 5e-10, 6e-10, 9.9e-10]
    )
    def test_sums_at_the_tolerance(self, shape, delta, built):
        # the product sums to about 1 + 2 delta, off by 1e-9 at |delta| =
        # 5e-10, where rounding decides; the joint itself is off by up to
        # 9.9e-10 (at 1 +- 1e-9 it is rejected before any product)
        m = _exponential_joint(shape)
        for _, got in self._assert_parity(m / m.sum() * (1 + delta)):
            if abs(delta) != 5e-10:
                assert (got[0] == "ValidationError") is (abs(delta) > 5e-10)
        assert not built

    @pytest.mark.parametrize("shape", [(4, 5), (600, 700)])
    def test_a_zero_cell_inside_the_support(self, shape, built):
        # p = 0 < q: a DomainError for k > 1/2 only, which the built product raises
        m = _exponential_joint(shape)
        m[2, 3] = 0.0
        for params, got in self._assert_parity(m / m.sum()):
            assert (got[0] == "DomainError") is (params.k > 0.5)
        assert len(built) == 2  # once per layout, at k = 0.7

    @pytest.mark.parametrize("shape", [(4, 5), (600, 700)])
    def test_a_zero_row_only(self, shape, built):
        # p = q = 0 on the row: no error at any k, and nothing is built
        m = _exponential_joint(shape)
        m[1] = 0.0
        for _, got in self._assert_parity(m / m.sum()):
            assert got[1] == "extended"
        assert not built

    @pytest.mark.parametrize("shape", [(4, 5), (600, 700)])
    def test_marginals_that_underflow_where_p_is_zero(self, shape, built):
        # row 1 and column 2 carry 1e-200 each, in other cells, so their
        # product underflows at (1, 2), where p = 0: the product is built
        m = _exponential_joint(shape)
        m[1], m[:, 2] = 0.0, 0.0
        m[1, 0], m[0, 2] = 1e-200, 1e-200
        for params, got in self._assert_parity(m / m.sum()):
            assert (got[0] == "DomainError") if params.k > 0.5 else (got[1] == "extended")
        assert built
