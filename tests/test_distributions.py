"""Tests for the probability data model, samplers, and JSON/CSV round trips."""

import inspect
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from entrokit import (
    Channel,
    ConfigError,
    DimensionError,
    DomainError,
    Distribution,
    EntrokitError,
    ParamError,
    ValidationError,
    apply_channel,
    make_channel,
    make_distribution,
    make_joint2,
    make_joint3,
    mix,
    product,
    sample_channel,
    sample_distribution,
)
import entrokit as ek
from entrokit import io as eio
from entrokit.distributions import _LEAF, _check_rows, _leaves, _rowsum, _runs


class TestMakeDistribution:
    def test_plain(self):
        d = make_distribution([0.5, 0.5])
        np.testing.assert_array_equal(d.p, [0.5, 0.5])
        assert d.n == 2

    def test_normalize(self):
        d = make_distribution([2.0, 2.0], normalize=True)
        np.testing.assert_array_equal(d.p, [0.5, 0.5])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([0.3, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([1.2, -0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([])

    @pytest.mark.parametrize("weights, message", [
        # a non-finite entry is reported before a negative one
        ([np.nan, -1.0], "probability entries must be finite"),
        ([-np.inf, 1.0], "probability entries must be finite"),
        ([-0.5, 1.5], "probability entries must be >= 0"),
    ])
    def test_validation_messages(self, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_distribution(weights)

    def test_channel_validation_messages(self):
        with pytest.raises(ValidationError, match="^transition weight entries must be finite$"):
            make_channel([[np.nan, -0.5], [1.0, 1.5]])
        with pytest.raises(ValidationError, match="^transition weight entries must be >= 0$"):
            make_channel([[1.0, -0.5], [0.0, 1.5]])

    def test_all_zero_normalize_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([0.0, 0.0], normalize=True)

    def test_sum_tolerance(self):
        make_distribution([0.5, 0.5 + 5e-10])
        with pytest.raises(ValidationError):
            make_distribution([0.5, 0.5 + 5e-9])

    def test_immutable(self):
        d = make_distribution([1.0])
        with pytest.raises(ValueError):
            d.p[0] = 0.5

    def test_boolean_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution([True, False])
        with pytest.raises(ValidationError):
            Distribution(np.array([True, False]))
        # numeric strings are not numbers either
        with pytest.raises(ValidationError):
            make_distribution(["0.5", "0.5"])


class TestJointTypes:
    def test_joint2_validation(self):
        make_joint2([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValidationError):
            make_joint2([[0.6, 0.25], [0.25, 0.25]])
        with pytest.raises(ValidationError):
            make_joint2([0.5, 0.5])

    def test_joint3_validation(self):
        make_joint3(np.full((2, 2, 2), 0.125))
        with pytest.raises(ValidationError):
            make_joint3(np.full((2, 2), 0.25))

    def test_channel_column_sums(self):
        make_channel([[0.9, 0.2], [0.1, 0.8]])
        with pytest.raises(ValidationError):
            make_channel([[0.9, 0.2], [0.2, 0.8]])

    def test_channel_normalize(self):
        c = make_channel([[3.0, 1.0], [1.0, 1.0]], normalize=True)
        np.testing.assert_allclose(c.w.sum(axis=0), 1.0, atol=1e-15)


class TestMarginalsAndProduct:
    def test_uniform_joint(self):
        j = make_joint2(np.full((2, 2), 0.25))
        mx, my = j.marginal(0), j.marginal(1)
        np.testing.assert_allclose(mx.p, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(my.p, [0.5, 0.5], atol=1e-15)

    def test_row_sums_by_hand(self):
        j = make_joint2([[0.5, 0.25], [0.0, 0.25]])
        mx, my = j.marginal(0), j.marginal(1)
        np.testing.assert_allclose(mx.p, [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(my.p, [0.5, 0.5], atol=1e-15)

    def test_product_examples(self):
        j = product(make_distribution([1.0, 0.0]), make_distribution([0.3, 0.7]))
        np.testing.assert_array_equal(j.p, [[0.3, 0.7], [0.0, 0.0]])
        j2 = product(make_distribution([0.6, 0.4]), make_distribution([0.5, 0.5]))
        np.testing.assert_allclose(j2.p, [[0.3, 0.3], [0.2, 0.2]], atol=1e-15)

    def test_marginals_of_product_recover_factors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = sample_distribution(int(rng.integers(1, 9)), rng)
            q = sample_distribution(int(rng.integers(1, 9)), rng)
            j = product(p, q)
            mx, my = j.marginal(0), j.marginal(1)
            np.testing.assert_allclose(mx.p, p.p, atol=1e-15)
            np.testing.assert_allclose(my.p, q.p, atol=1e-15)

    def test_joint3_pair_and_marginal(self):
        t = sample_distribution((3, 4, 2), seed=5)
        np.testing.assert_allclose(t.marginal(0, 2).p, t.p.sum(axis=1), atol=0)
        np.testing.assert_allclose(t.marginal(2).p, t.p.sum(axis=(0, 1)), atol=0)

    def test_marginal_axis_order(self):
        t = sample_distribution((3, 4, 2), seed=5)
        np.testing.assert_array_equal(t.marginal(2, 0).p, t.marginal(0, 2).p.T)
        np.testing.assert_array_equal(t.marginal(0, 1, 2).p, t.p)
        np.testing.assert_array_equal(t.marginal_x().p, t.marginal(0).p)

    @pytest.mark.parametrize("axes", [(), (3,), (-1,), (0, 0), ("0",)])
    def test_marginal_bad_axes(self, axes):
        with pytest.raises(ParamError):
            sample_distribution((3, 4, 2), seed=5).marginal(*axes)

    def test_product_of_any_ranks(self):
        p = sample_distribution((2, 3), seed=1)
        q = sample_distribution(4, seed=2)
        j = product(p, q)
        assert j.shape == (2, 3, 4)
        np.testing.assert_array_equal(j.marginal(0, 1).p, j.p.sum(axis=2))
        np.testing.assert_allclose(j.marginal(0, 1).p, p.p, atol=1e-15)


class TestDerivedDataAreNotCheckedAgain:
    """What the library derives from accepted data is built without a
    second sum check, which could only reject the rounding of accepted
    input: a product's sum error is the sum of its factors'."""

    def test_product_of_the_marginals(self):
        # [[0.1, 0.2], [0.3, 0.4]] off by 0.9e-9, whose product is off by 1.8e-9
        j = make_joint2(np.array([[0.1, 0.2], [0.3, 0.4]]) * (1 + 0.9e-9))
        mx, my = j.marginal(0), j.marginal(1)
        pq = product(mx, my)
        assert pq.p.sum() == 1.0000000018000001
        assert pq.p.tobytes() == np.multiply.outer(mx.p, my.p).tobytes()

    def test_apply_channel(self):
        w = make_channel(np.array([[0.25, 0.5], [0.75, 0.5]]) * (1 + 0.9e-9))
        p = make_distribution(np.array([0.4, 0.6]) * (1 + 0.9e-9))
        out = apply_channel(w, p)
        assert out.p.sum() == 1.0000000018000001
        assert out.p.tobytes() == (w.w @ p.p).tobytes()

    def test_mix(self):
        # both sum to 1.0000000009999999; their mix rounds to 1 + 1e-9 and more
        p = make_distribution([0.3713333413324878, 0.2551352386378681, 0.040333716488614016,
                               0.2730053453278732, 0.060192359213156896])
        q = make_distribution([0.15810771659916703, 0.3730624614234255, 0.2175428666023165,
                               0.2243259372056491, 0.026961019169441873])
        lam = 0.7320061956565608
        out = mix(p, q, lam)
        assert out.p.sum() == 1.000000001
        assert out.p.tobytes() == ((1.0 - lam) * p.p + lam * q.p).tobytes()


class TestChannels:
    def test_identity_channel(self):
        p = make_distribution([0.3, 0.7])
        out = apply_channel(Channel(np.eye(2)), p)
        np.testing.assert_array_equal(out.p, p.p)

    def test_collapse_channel(self):
        w = make_channel([[1.0, 1.0, 1.0]])
        out = apply_channel(w, make_distribution([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(out.p, [1.0], atol=1e-15)

    def test_matrix_vector_by_hand(self):
        w = make_channel([[0.9, 0.2], [0.1, 0.8]])
        out = apply_channel(w, make_distribution([0.5, 0.5]))
        np.testing.assert_allclose(out.p, [0.55, 0.45], atol=1e-15)

    def test_dimension_mismatch(self):
        w = make_channel([[0.9, 0.2], [0.1, 0.8]])
        with pytest.raises(DimensionError):
            apply_channel(w, make_distribution([1.0]))

    def test_preserves_total_probability(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 10))
            w = sample_channel(m, n, rng)
            p = sample_distribution(n, rng)
            assert abs(apply_channel(w, p).p.sum() - 1.0) <= 1e-9


class TestMix:
    def test_endpoints_and_fixed_point(self):
        p = make_distribution([0.2, 0.8])
        q = make_distribution([0.6, 0.4])
        np.testing.assert_array_equal(mix(p, q, 0.0).p, p.p)
        np.testing.assert_array_equal(mix(p, q, 1.0).p, q.p)
        np.testing.assert_array_equal(mix(p, p, 0.42).p, p.p)

    def test_interior_point(self):
        out = mix(make_distribution([1.0, 0.0]), make_distribution([0.0, 1.0]), 0.25)
        np.testing.assert_allclose(out.p, [0.75, 0.25], atol=1e-15)

    def test_errors(self):
        p = make_distribution([1.0])
        q = make_distribution([0.5, 0.5])
        with pytest.raises(DimensionError):
            mix(p, q, 0.5)
        for lam in (1.5, float("nan"), "0.5", True):
            with pytest.raises(ParamError):
                mix(q, q, lam)

    def test_a_fraction_lambda_mixes_as_its_float(self):
        p, q = sample_distribution(5, seed=1), sample_distribution(5, seed=2)
        out = mix(p, q, Fraction(1, 3))
        assert out.p.dtype == np.float64
        assert out.p.tobytes() == mix(p, q, 1 / 3).p.tobytes()


class TestOperatorBits:
    """Each operator against the expression it computed before it called its
    batched form (_outer_rows, _push_rows, _mix_rows), bit for bit."""

    @pytest.mark.parametrize("shapes", [((1,), (1,)), ((3,), (4,)), ((3,), (2, 5)), ((2, 5), (3,))],
                             ids=["1x1", "rank 1x1", "rank 1x2", "rank 2x1"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_product(self, shapes, order):
        rng = np.random.default_rng(8)
        a, b = (rng.exponential(size=s) for s in shapes)
        if a.size > 1:
            a.flat[0] = b.flat[-1] = 0.0  # zero cells
        a, b = (np.asarray(x / x.sum(), order=order) for x in (a, b))
        j = product(Distribution(a), Distribution(b))
        ref = np.multiply.outer(a, b)
        assert j.shape == ref.shape and j.p.flags.c_contiguous
        assert j.p.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, n", [(1, 1), (18, 16), (1024, 1024)])
    def test_apply_channel(self, m, n):
        rng = np.random.default_rng(n)
        w, p = sample_channel(m, n, rng), sample_distribution(n, rng)
        out = apply_channel(w, p)
        assert out.p.flags.c_contiguous and out.p.tobytes() == (w.w @ p.p).tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_mix(self, lam):
        rng = np.random.default_rng(9)
        p, q = sample_distribution((4, 5), rng), sample_distribution((4, 5), rng)
        assert mix(p, q, lam).p.tobytes() == ((1.0 - lam) * p.p + lam * q.p).tobytes()


_HALF = make_distribution([0.5, 0.5])
_EYE = make_channel(np.eye(2))


@pytest.mark.parametrize("call, message", [
    (lambda: product(_HALF, [0.5, 0.5]), "q must be a Distribution, got list"),
    (lambda: product([0.5, 0.5], _HALF), "p must be a Distribution, got list"),
    (lambda: apply_channel(_EYE, [0.5, 0.5]), "p must be a Distribution, got list"),
    (lambda: apply_channel(np.eye(2), _HALF), "w must be a Channel, got ndarray"),
    (lambda: mix(_HALF, [0.5, 0.5], 0.5), "p2 must be a Distribution, got list"),
    (lambda: mix(None, _HALF, 0.5), "p1 must be a Distribution, got NoneType"),
])
def test_operators_reject_a_wrong_type(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


_PARAMS = ek.DeformParams(0.25, 0.5)
_JOINT = ek.make_joint2([[0.5, 0.0], [0.0, 0.5]])
_NOT_P = "p must be a Distribution, got list"
_NOT_PARAMS = "params must be a DeformParams, got NoneType"


@pytest.mark.parametrize("call, error, message", [
    (lambda: ek.entropy([0.5, 0.5], _PARAMS), ValidationError, _NOT_P),
    (lambda: ek.entropy(_HALF, None), ParamError, _NOT_PARAMS),
    (lambda: ek.entropy_literal(_HALF, None), ParamError, _NOT_PARAMS),
    (lambda: ek.shannon_entropy([0.5, 0.5]), ValidationError, _NOT_P),
    (lambda: ek.tsallis_entropy([0.5, 0.5], 0.5), ValidationError, _NOT_P),
    (lambda: ek.conditional_entropy(_JOINT, None), ParamError, _NOT_PARAMS),
    (lambda: ek.mutual_entropy([[0.5, 0.0], [0.0, 0.5]], _PARAMS), ValidationError,
     "j must be a Distribution, got list"),
    (lambda: ek.divergence(_HALF, [0.5, 0.5], _PARAMS), ValidationError,
     "q must be a Distribution, got list"),
    (lambda: ek.divergence(_HALF, _HALF, None), ParamError, _NOT_PARAMS),
    (lambda: ek.divergence_literal([0.5, 0.5], _HALF, _PARAMS), ValidationError, _NOT_P),
    (lambda: ek.kl_divergence(_HALF, None), ValidationError,
     "q must be a Distribution, got NoneType"),
    (lambda: ek.tsallis_divergence([0.5, 0.5], _HALF, 0.5), ValidationError, _NOT_P),
    (lambda: ek.mutual_divergence(_JOINT, None), ParamError, _NOT_PARAMS),
    (lambda: ek.log_sum_gap([1.0, 2.0], [2.0, 1.0], None), ParamError, _NOT_PARAMS),
    (lambda: ek.fd_hessian(_HALF, None), ParamError, _NOT_PARAMS),
    (lambda: ek.ln_kr(2.0, None), ParamError, _NOT_PARAMS),
    (lambda: ek.legacy_Ln(2.0, None), ParamError, _NOT_PARAMS),
    (lambda: ek.legacy_u(2.0, None), ParamError, _NOT_PARAMS),
    (lambda: ek.metric_coefficient(None), ParamError, _NOT_PARAMS),
    (lambda: ek.hessian_potential(1.0, None), ParamError,
     "coeffs must be a PotentialCoefficients, got NoneType"),
])
def test_entry_points_reject_a_wrong_type(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestSampling:
    def test_singleton(self):
        np.testing.assert_array_equal(sample_distribution(1, seed=9).p, [1.0])

    def test_determinism(self):
        a = sample_distribution(5, seed=42)
        b = sample_distribution(5, seed=42)
        np.testing.assert_array_equal(a.p, b.p)
        ja = sample_distribution((3, 4), seed=42)
        jb = sample_distribution((3, 4), seed=42)
        np.testing.assert_array_equal(ja.p, jb.p)

    def test_joint_draws_the_flat_stream(self):
        # a joint of shape s takes the same exponentials as a vector of s's size
        for shape in ((3, 4), (2, 3, 4)):
            j = sample_distribution(shape, seed=42)
            flat = sample_distribution(int(np.prod(shape)), seed=42)
            np.testing.assert_array_equal(j.p.ravel(), flat.p)

    def test_channel_columns(self):
        w = sample_channel(3, 4, seed=7)
        assert w.shape == (3, 4)
        np.testing.assert_allclose(w.w.sum(axis=0), 1.0, atol=1e-12)

    def test_zero_sizes_rejected(self):
        with pytest.raises(ParamError):
            sample_distribution(0, seed=1)
        with pytest.raises(ParamError):
            sample_channel(0, 3, seed=1)
        with pytest.raises(ParamError):
            sample_distribution((2, 0, 2), seed=1)
        # non-integer sizes are rejected, not handed to numpy
        with pytest.raises(ParamError):
            sample_distribution(2.5, 0)
        with pytest.raises(ParamError):
            sample_distribution((2, "3"), 0)
        with pytest.raises(ParamError):
            sample_channel(2.5, 3, 0)

    @pytest.mark.parametrize("call", [
        lambda: sample_distribution(10**400, 0),
        lambda: sample_distribution((2, 10**400), 0),
        lambda: sample_distribution(2**62, 0),
        lambda: sample_channel(10**400, 2, 0),
    ], ids=["10^400", "2 x 10^400", "2^62", "channel 10^400"])
    def test_sizes_beyond_an_array_rejected(self, call):
        # more bytes than an array index reaches; numpy's own error was a ValueError
        with pytest.raises(ParamError, match="make an array too large to address$"):
            call()

    @pytest.mark.parametrize("seed", [1.7, 2.0, "3", None])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ParamError):
            sample_distribution(3, seed)

    def test_joint3_valid(self):
        t = sample_distribution((4, 3, 5), seed=13)
        assert abs(t.p.sum() - 1.0) <= 1e-12


class TestConditionalConsistency:
    def test_sum_rule_on_triples(self):
        # sum_x p(x|z) p(y|x,z) == p(y|z) wherever p(z) > 0
        rng = np.random.default_rng(23)
        for _ in range(25):
            dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
            t = sample_distribution(dims, rng).p
            pz = t.sum(axis=(0, 1))
            pxz = t.sum(axis=1)
            for z in range(dims[2]):
                if pz[z] <= 0:
                    continue
                lhs = np.zeros(dims[1])
                for x in range(dims[0]):
                    if pxz[x, z] > 0:
                        lhs += (pxz[x, z] / pz[z]) * (t[x, :, z] / pxz[x, z])
                rhs = t.sum(axis=0)[:, z] / pz[z]
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# every (field, format) pair with a layout; a joint of three has no CSV one
ROUNDTRIPS = [
    pytest.param("p", "json", sample_distribution(6, seed=4), id="p-json"),
    pytest.param("m", "json", sample_distribution((3, 5), seed=4), id="m-json"),
    pytest.param("t", "json", sample_distribution((2, 3, 4), seed=4), id="t-json"),
    pytest.param("w", "json", sample_channel(4, 3, seed=4), id="w-json"),
    pytest.param("p", "csv", sample_distribution(6, seed=8), id="p-csv"),
    pytest.param("m", "csv", sample_distribution((3, 5), seed=8), id="m-csv"),
    pytest.param("w", "csv", sample_channel(2, 4, seed=8), id="w-csv"),
]


class TestSerialization:
    @pytest.mark.parametrize("field, fmt, obj", ROUNDTRIPS)
    def test_roundtrip(self, field, fmt, obj):
        data = obj.w if isinstance(obj, Channel) else obj.p
        text = eio.write(obj, fmt)
        if fmt == "json":
            assert list(json.loads(text)) == [field]
        elif data.ndim == 2:
            assert text.splitlines()[0] == f"# rows={data.shape[0]} cols={data.shape[1]}"
        again = eio.read(text, (field,), fmt, False)
        assert type(again) is type(obj)
        np.testing.assert_array_equal(data, again.w if field == "w" else again.p)
        if fmt == "csv":  # blank lines, empty or not, are skipped
            spaced = eio.read("\n" + text.replace("\n", "\n \n"), (field,), fmt, False)
            np.testing.assert_array_equal(data, spaced.w if field == "w" else spaced.p)

    def test_no_layout_rejected(self):
        with pytest.raises(ValidationError, match="no CSV layout"):
            eio.write(sample_distribution((2, 3, 4), seed=4), "csv")
        with pytest.raises(ValidationError, match="rank 4"):
            eio.write(Distribution(np.full((1, 1, 1, 2), 0.5)), "json")

    def test_header_shape_mismatch(self):
        with pytest.raises(ValidationError):
            eio.read("# rows=3 cols=3\n0.5,0.5\n0.0,0.0\n", ("m",), "csv", False)

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            eio.read("{not json", ("p",), "json", False)
        with pytest.raises(ValidationError):
            eio.read('{"q": [1.0]}', ("p",), "json", False)

    @pytest.mark.parametrize("fmt", ["JSON", "xml", None])
    def test_unknown_format_rejected(self, fmt):
        # any format but the two is an error; before, it was taken as CSV
        message = "^format must be 'json' or 'csv', got "
        with pytest.raises(ValidationError, match=message):
            eio.write(make_distribution([0.25, 0.75]), fmt)
        with pytest.raises(ValidationError, match=message):
            eio.read('{"p": [0.25, 0.75]}', ("p",), fmt, False)

    def test_malformed_csv(self):
        with pytest.raises(ValidationError):
            eio.read("0.5,abc\n", ("p",), "csv", False)
        with pytest.raises(ValidationError):
            eio.read("0.5,0.5\n0.0\n", ("m",), "csv", False)

    def test_unknown_or_no_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field 'q'"):
            eio.read('{"q": 1}', ("q",), "json", False)
        with pytest.raises(ValidationError, match="unknown field 'x'"):
            eio.read('{"p": [1.0]}', ("p", "x"), "json", False)
        with pytest.raises(ValidationError, match="unknown field 'q'"):
            eio.read("1.0\n", ("q",), "csv", False)
        with pytest.raises(ValidationError, match="no field to read"):
            eio.read("{}", (), "json", False)

    def test_normalize_on_read(self):
        d = eio.read('{"p": [2, 2]}', ("p",), "json", True)
        np.testing.assert_array_equal(d.p, [0.5, 0.5])


# Run sizes around one leaf of the pairwise tree, two leaves, and many
EDGES = [
    *range(1, 130),
    *range(_LEAF - 1, _LEAF + 10),
    *range(2 * _LEAF - 1, 2 * _LEAF + 10),
    3 * 2**18 + 5,
    2**20,
]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


class TestPairwiseOrder:
    """_rowsum evaluates and sums a long row run by run, adding the runs in
    numpy's pairwise tree: np.sum's value bit for bit."""

    def test_vectors_of_every_edge_size(self):
        rng = np.random.default_rng(60)
        for n in EDGES:
            # mixed signs over 16 decades: any other grouping moves bits
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            assert _hex(_rowsum(a[np.newaxis])) == _hex(a.sum()), n

    @pytest.mark.parametrize("n", [_LEAF + 1, 4 * _LEAF + 9, 3 * 2**18 + 5])
    def test_rows_of_a_batch(self, n):
        b = np.random.default_rng(n).standard_normal((3, n)) * 1e3
        assert _hex(_rowsum(b)) == _hex(b.sum(axis=1))
        assert _hex(_rowsum(b, np.square)) == _hex(np.square(b).sum(axis=1))

    @pytest.mark.parametrize("shape", [(2, 300, 333), (1, 3, 70001)])
    def test_strided_rows_are_summed_in_c_order(self, shape):
        # each run of a transposed or reversed batch is copied in C order,
        # as the whole row's reshape would be
        a = np.random.default_rng(61).standard_normal(shape)
        for v in (a.transpose(0, 2, 1), a[:, ::-1, ::-1], np.asfortranarray(a)):
            assert _hex(_rowsum(v)) == _hex(v.reshape(len(v), -1).sum(axis=1))

    def test_leaves_tile_the_row_in_order(self):
        for n in EDGES:
            runs = list(_leaves(n))
            assert runs[0][0] == 0 and runs[-1][1] == n
            assert all(b == c for (_, b), (c, _) in zip(runs, runs[1:]))
            assert max(b - a for a, b in runs) <= _LEAF


@pytest.mark.parametrize("n", [_LEAF - 1, _LEAF + 1, 3 * _LEAF + 7])
def test_a_run_maker_gives_the_runs_of_its_array(n):
    a = np.random.default_rng(n).standard_normal((2, n))
    made = []

    def maker(start, stop):
        made.append((start, stop))
        return a[:, start:stop].copy()

    got, want = [*_runs((a, maker), n)], [*_runs((a, a), n)]
    assert made == ([(0, n)] if n <= _LEAF else [*_leaves(n)])
    assert len(got) == len(want) == len(made)
    for (x, y), (x0, y0) in zip(got, want):
        assert x.shape == y.shape == y0.shape
        assert (x == x0).all() and (y == y0).all()


def _strided(a):
    wide = np.zeros((2 * a.shape[0], *a.shape[1:]))
    wide[::2] = a
    return wide[::2]


class TestCopyAndCheck:
    """A caller's array is copied and checked in one pass of blocks; the
    copy is C-ordered whatever the caller's layout, and every check keeps
    its message."""

    @pytest.mark.parametrize("n", [3, 1 << 17])
    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a,
            np.asfortranarray,
            lambda a: np.ascontiguousarray(a.T).T,
            _strided,
            lambda a: a[::-1, ::-1],
        ],
        ids=["C", "F", "transposed", "strided", "reversed"],
    )
    def test_strides_and_values_are_np_arrays(self, n, layout):
        w = np.random.default_rng(62).exponential(size=(n, 4))
        a = layout(w / w.sum())
        d = Distribution(a)
        assert d.p.flags.c_contiguous and d.p.strides == (32, 8)
        np.testing.assert_array_equal(d.p, a)
        assert not d.p.flags.writeable and not np.shares_memory(d.p, a)

    @pytest.mark.parametrize("n", [3, 1 << 17])
    @pytest.mark.parametrize(
        "fault, value, message",
        [
            ("nan", np.nan, "probability entries must be finite"),
            ("inf", np.inf, "probability entries must be finite"),
            ("-inf", -np.inf, "probability entries must be finite"),
            ("negative", -1e-3, "probability entries must be >= 0"),
            ("high", 1 + 1.1e-9, None),
            ("low", 1 - 1.1e-9, None),
        ],
    )
    @pytest.mark.parametrize("at", [0.5, 1.0])
    def test_each_fault_raises_its_message(self, n, fault, value, message, at):
        w = np.random.default_rng(63).exponential(size=n)
        a = w / w.sum()
        if message is None:  # the sum is off by 1.1e-9
            a *= value
            message = f"probabilities sum to {float(a.sum())!r}, expected 1"
        else:  # in the middle, or in the last run
            a[min(int(at * n), n - 1)] = value
        for build in (Distribution, make_distribution):
            with pytest.raises(ValidationError) as err:
                build(a)
            assert str(err.value) == message

    @pytest.mark.parametrize("cells, message", [
        ([0.5, np.nan, 0.5], "probability entries must be finite"),
        ([0.5, np.inf, 0.5], "probability entries must be finite"),
        ([0.5, -np.inf, 0.5], "probability entries must be finite"),
        ([0.5, -0.25, 0.75], "probability entries must be >= 0"),
        ([1e308, 1e308, 0.0], "probabilities sum to inf, expected 1"),
    ])
    def test_no_scan_for_the_largest_cell_moves_a_message(self, cells, message):
        # cells >= 0 that sum to 1 are finite: +inf makes its sum inf, and
        # finite cells whose sum overflows keep the sum's message
        batch = np.full((3, 3), 1 / 3)
        batch[1] = cells
        builds = [(make_distribution, cells), (make_joint2, [cells, cells]), (_check_rows, batch)]
        for build, data in builds:
            with np.errstate(over="ignore"), pytest.raises(ValidationError) as err:
                build(data)
            assert str(err.value) == message, build

    @pytest.mark.parametrize("data", [[], np.zeros((0, 3)), np.zeros((2, 0))])
    def test_empty_raises_its_message(self, data):
        with pytest.raises(ValidationError, match="^probability must be non-empty$"):
            Distribution(data)


_P = np.array([0.25, 0.75])
_Z = np.array([0.0, 1.0])
_M = np.array([[0.125, 0.375], [0.25, 0.25]])
_MZ = np.array([[0.0, 0.5], [0.25, 0.25]])
_LONG = np.full(1 << 17, 2.0**-17)
_LONG_Z = _LONG.copy()
_LONG_Z[-1], _LONG_Z[-2] = 0.0, 2.0**-16  # a zero in the last run


@pytest.mark.parametrize(
    "build, positive",
    [
        (lambda: Distribution(_P), True),
        (lambda: Distribution(_Z), False),
        (lambda: Distribution(np.asfortranarray(_MZ)), False),
        (lambda: Distribution(_LONG), True),
        (lambda: Distribution(_LONG_Z), False),
        (lambda: make_distribution(_P), True),
        (lambda: make_distribution(3 * _Z, normalize=True), False),
        (lambda: make_joint2(_M), True),
        (lambda: make_joint2(_MZ.T, normalize=True), False),
        (lambda: make_joint3(np.full((2, 2, 2), 0.125)), True),
        (lambda: make_joint3(np.stack([_MZ, _MZ]), normalize=True), False),
        (lambda: product(make_distribution(_P), make_distribution(_P)), True),
        (lambda: product(make_distribution(_P), make_distribution(_Z)), False),
        (lambda: make_joint2(_M).marginal(1), True),
        (lambda: make_joint2(_MZ.T).marginal(1), True),
        (lambda: make_joint2(np.array([[0.0, 0.0], [0.5, 0.5]])).marginal(0), False),
        (lambda: mix(make_distribution(_Z), make_distribution(_P), 0.5), True),
        (lambda: mix(make_distribution(_Z), make_distribution(_P), 0.0), False),
        (lambda: apply_channel(make_channel(np.eye(2)), make_distribution(_P)), True),
        (lambda: apply_channel(make_channel(np.eye(2)), make_distribution(_Z)), False),
        (lambda: sample_distribution((3, 4), seed=1), True),
        (lambda: eio.read('{"p": [0.5, 0.5]}', ("p",), "json", False), True),
        (lambda: eio.read("0,1", ("p",), "csv", False), False),
        (lambda: eio.read('{"m": [[0, 2], [1, 1]]}', ("m",), "json", True), False),
    ],
)
def test_every_constructor_knows_its_positivity(build, positive):
    d = build()
    assert d._positive is positive is bool(np.all(d.p > 0))


# Joints of rank 1-3 whose marginals are pinned for every axis order,
# among them the benchmark's 1024 x 1024 and 128^3 and a 2 x 512 x 512
MARGINAL_SHAPES = [(7,), (40000,), (5, 9), (1024, 1024), (3, 4, 5), (128, 128, 128), (2, 512, 512)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", MARGINAL_SHAPES, ids=str)
def test_marginal_is_np_sum_over_the_other_axes(shape, order):
    a = np.random.default_rng(len(shape)).exponential(size=shape)
    j = Distribution(np.asarray(a / a.sum(), order=order))  # held in C order
    for r in range(1, len(shape) + 1):
        for axes in itertools.permutations(range(len(shape)), r):
            kept = sorted(axes)
            rest = tuple(x for x in range(len(shape)) if x not in kept)
            ref = np.sum(j.p, axis=rest).transpose([kept.index(x) for x in axes])
            m = j.marginal(*axes)
            assert m.p.flags.c_contiguous and not m.p.flags.writeable
            assert m.shape == ref.shape and m.p.tobytes() == ref.tobytes(), axes


def _normalized(e: np.ndarray) -> np.ndarray:
    return e / np.sum(e)


@pytest.mark.parametrize("seeds, shape", [
    (range(200), 1), (range(200), 5), (range(200), (3, 4)), (range(200), (2, 3, 4)),
    (range(6), 40000), (range(6), (200, 300)),
], ids=str)
def test_sample_distribution_is_normalized_exponentials(seeds, shape):
    for seed in seeds:
        ref = _normalized(np.random.default_rng(seed).exponential(size=shape))
        assert sample_distribution(shape, seed).p.tobytes() == np.atleast_1d(ref).tobytes()


@pytest.mark.parametrize("seeds, m, n", [
    (range(200), 1, 1), (range(200), 3, 4), (range(200), 16, 5), (range(6), 40000, 2),
], ids=str)
def test_sample_channel_is_normalized_exponential_columns(seeds, m, n):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        ref = np.column_stack([_normalized(rng.exponential(size=m)) for _ in range(n)])
        w = sample_channel(m, n, seed).w
        assert w.flags.c_contiguous and w.tobytes() == ref.tobytes()


@pytest.mark.parametrize("call, error, message", [
    (lambda: ek.SweepConfig(seed=True), ConfigError, "seed must be an integer, got True"),
    (lambda: ek.SweepConfig(trials=True), ConfigError, "trials must be an integer, got True"),
    (lambda: ek.run_single(ek.SweepConfig(), "chain_rule", True), ConfigError,
     "trial must be an integer, got True"),
    (lambda: sample_distribution(True, 0), ParamError,
     r"support sizes must be integers, got \(True,\)"),
    (lambda: sample_channel(2, True, 0), ParamError,
     r"support sizes must be integers, got \(2, True\)"),
    (lambda: sample_distribution(3, True), ParamError, "seed must be an integer, got True"),
    (lambda: sample_distribution((2, 3), 0).marginal(True), ParamError,
     r"axes must be integers, got \(True,\)"),
], ids=["config seed", "config trials", "run_single trial", "vector size", "channel size",
        "sampler seed", "marginal axis"])
def test_a_bool_is_not_an_integer(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: Channel(np.ones(3)), ValidationError, "channel must be a 2-d matrix"),
    (lambda: make_channel(np.ones(3)), ValidationError, "channel weights must be a 2-d matrix"),
    (lambda: make_channel([[0.0, 1.0], [0.0, 1.0]], normalize=True), ValidationError,
     "cannot normalize a channel with an all-zero column"),
    (lambda: make_distribution([1e308, 1e308], normalize=True), ValidationError,
     "cannot normalize weights whose sum overflows"),
    (lambda: make_channel([[1e308, 0.5], [1e308, 0.5]], normalize=True), ValidationError,
     "cannot normalize a channel with a column whose sum overflows"),
    (lambda: sample_distribution(3, 2**64), ParamError, "seed must be a 64-bit unsigned integer"),
    (lambda: ek.divergence_literal(_HALF, _HALF, _PARAMS, form="xy"), ParamError,
     "form must be \"pq\" or \"qp\", got 'xy'"),
    (lambda: ek.mutual_divergence(_HALF, _PARAMS), DimensionError,
     "mutual divergence needs a 2-axis joint, got 1 axes"),
    (lambda: ek.mutual_entropy(sample_distribution((2, 2, 2), 0), _PARAMS), DimensionError,
     "mutual entropy needs a 2-axis joint, got 3 axes"),
    (lambda: eio.read("# rows=a cols=2\n0.5,0.5\n", ("m",), "csv", False), ValidationError,
     "malformed CSV header: '# rows=a cols=2'"),
    (lambda: eio.read("# rows=1 cols=2\n", ("m",), "csv", False), ValidationError,
     "no data rows in CSV input"),
    (lambda: ek.ln_kr([], _PARAMS), DomainError, "x must be non-empty"),
], ids=["Channel rank", "make_channel rank", "zero column", "sum overflow", "column overflow",
        "seed range", "literal form",
        "mutual_divergence rank", "mutual_entropy rank", "CSV header", "CSV rows", "empty x"])
def test_raise_sites_keep_their_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def _valid_calls() -> dict:
    """One valid call of every callable of entrokit.__all__: its arguments
    by parameter name, in the order of its signature."""
    p, q, j = _HALF, sample_distribution(2, 1), sample_distribution((2, 3), 2)
    params, cfg = _PARAMS, ek.SweepConfig(trials=1, properties=("chain_rule",))
    check = ek.CheckResult("chain_rule", 0, True, 1.0, 1.0, 0.0, "seed=0")
    calls = {
        "joint_entropy": dict(p=p, params=params),
        "conditional_entropy3": dict(j=j, params=params, spec="Y_given_X"),
        "DeformParams": dict(k=0.25, r=0.5, relaxed=False),
        "ln_kr": dict(x=0.5, params=params),
        "ln_q": dict(x=0.5, q=2.0),
        "legacy_Ln": dict(x=0.5, params=params, warn_outside_region=False),
        "legacy_u": dict(x=0.5, params=params),
        "Distribution": dict(p=[0.5, 0.5]),
        "Channel": dict(w=np.eye(2)),
        "make_distribution": dict(weights=[1.0, 3.0], normalize=True),
        "make_joint2": dict(matrix=[[1.0, 3.0]], normalize=True),
        "make_joint3": dict(tensor=[[[1.0, 3.0]]], normalize=True),
        "make_channel": dict(matrix=[[1.0, 3.0]], normalize=True),
        "product": dict(p=p, q=q),
        "apply_channel": dict(w=_EYE, p=p),
        "mix": dict(p1=p, p2=q, lam=0.5),
        "sample_distribution": dict(shape=3, seed=0),
        "sample_channel": dict(m=2, n=3, seed=0),
        "EntropyValue": dict(value=0.5, params=params),
        "entropy": dict(p=p, params=params),
        "entropy_literal": dict(p=p, params=params),
        "conditional_entropy": dict(j=j, params=params, spec="Y_given_X"),
        "mutual_entropy": dict(j=j, params=params),
        "shannon_entropy": dict(p=p),
        "tsallis_entropy": dict(p=p, q=2.0),
        "DivergenceValue": dict(value=0.5, params=params, support_flag="full"),
        "divergence": dict(p=p, q=q, params=params),
        "divergence_literal": dict(p=p, q=q, params=params, form="pq"),
        "log_sum_gap": dict(a=[1.0, 2.0], b=[2.0, 1.0], params=params),
        "kl_divergence": dict(p=p, q=q),
        "tsallis_divergence": dict(p=p, q=q, q_param=2.0),
        "mutual_divergence": dict(j=j, params=params),
        "MetricDiagonal": dict(g=np.ones(2), params=params, convention="derived"),
        "PotentialCoefficients": dict(A=1.0, c1=0.0, c2=0.0),
        "metric_coefficient": dict(params=params, convention="derived"),
        "fisher_metric": dict(p=p, params=params, convention="derived"),
        "fd_hessian": dict(p=p, params=params, step=1e-4),
        "quadratic_form": dict(p=p, dp=[1e-3, -1e-3], params=params),
        "hessian_potential": dict(u=0.5, coeffs=ek.PotentialCoefficients(1.0)),
        "SweepConfig": dict(seed=0, trials=1, tol=None, properties=("chain_rule",)),
        "CheckResult": dict(property="chain_rule", trial_index=0, passed=True, lhs=1.0,
                            rhs=1.0, slack=0.0, instance_digest="seed=0"),
        "PropertyReport": dict(name="chain_rule", anchor="Theorem 3.6", kind="identity",
                               passes=1, fails=0, worst_slack=0.0, failures=(check,)),
        "VerificationReport": dict(config=cfg, properties=()),
        "list_properties": dict(),
        "run_single": dict(config=cfg, name="chain_rule", trial=0),
        "run_suite": dict(config=cfg),
    }
    # an error class takes its message
    calls.update({name: dict(message="m") for name in ek.errors.__all__})
    return calls


# Values of a wrong type or outside every domain; a Distribution of the wrong
# rank is added per parameter
WRONG = [None, "abc", [0.5, 0.5], True, 1 + 2j, math.nan, np.array(0.5), 10**400]


@pytest.mark.filterwarnings("ignore::entrokit.LegacyRegionWarning")
@pytest.mark.parametrize("name", [n for n in ek.__all__ if callable(getattr(ek, n))])
def test_only_entrokit_errors_escape_the_public_boundary(name):
    fn, valid = getattr(ek, name), _valid_calls()[name]
    if name not in ek.errors.__all__:
        assert list(inspect.signature(fn).parameters) == list(valid)
    fn(*valid.values())
    for param, good in valid.items():
        rank = 2 if isinstance(good, Distribution) and good.ndim == 1 else 1
        for bad in [*WRONG, sample_distribution((2,) * rank, 0)]:
            args = [bad if key == param else value for key, value in valid.items()]
            try:
                fn(*args)
            except EntrokitError:
                pass


# Every boolean flag of the public API, set to a value
FLAGS = {
    "DeformParams relaxed": lambda v: ek.DeformParams(0.3, 0.8, relaxed=v),
    "make_distribution normalize": lambda v: ek.make_distribution([0.25, 0.75], normalize=v),
    "make_joint2 normalize": lambda v: ek.make_joint2([[0.25, 0.75]], normalize=v),
    "make_joint3 normalize": lambda v: ek.make_joint3([[[0.25, 0.75]]], normalize=v),
    "make_channel normalize": lambda v: ek.make_channel([[1.0], [0.0]], normalize=v),
    "io.read normalize": lambda v: eio.read('{"p": [0.25, 0.75]}', ("p",), "json", v),
    "legacy_Ln warn_outside_region": lambda v: ek.legacy_Ln(
        2.0, ek.DeformParams(0.3, 0.1), warn_outside_region=v),
}


@pytest.mark.parametrize("value, is_flag", [
    ("false", False), ("no", False), (0, False), (1, False), (None, False),
    (True, True), (False, True), (np.True_, True),
])
def test_a_flag_is_a_bool(value, is_flag):
    # a string, an integer or None stands for no flag: before, "false" made
    # DeformParams relaxed and "no" normalized
    for call in FLAGS.values():
        if is_flag:
            call(value)
        else:
            with pytest.raises(EntrokitError, match="must be True or False"):
                call(value)
    assert ek.DeformParams(0.3, 0.8, relaxed=np.False_).relaxed is False
