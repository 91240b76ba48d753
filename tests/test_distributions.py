"""Tests for the probability data model, samplers, and JSON/CSV round trips."""

import json

import numpy as np
import pytest

from entrokit import (
    Channel,
    DimensionError,
    Distribution,
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
from entrokit import io as eio


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

    def test_malformed_csv(self):
        with pytest.raises(ValidationError):
            eio.read("0.5,abc\n", ("p",), "csv", False)
        with pytest.raises(ValidationError):
            eio.read("0.5,0.5\n0.0\n", ("m",), "csv", False)

    def test_normalize_on_read(self):
        d = eio.read('{"p": [2, 2]}', ("p",), "json", True)
        np.testing.assert_array_equal(d.p, [0.5, 0.5])
