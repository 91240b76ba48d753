"""Tests for the property-sweep engine itself: registry coverage,
determinism, order independence, and failure reporting."""

import itertools
import json
import sys

import numpy as np
import pytest

from entrokit import (
    CheckResult,
    ConfigError,
    DeformParams,
    Distribution,
    SweepConfig,
    conditional_entropy,
    divergence,
    divergence_literal,
    entropy,
    entropy_literal,
    kl_divergence,
    list_properties,
    run_single,
    run_suite,
    sample_distribution,
    shannon_entropy,
)
from entrokit.divergence import _divergence_literal_rows, _divergence_rows, _kl_rows
from entrokit.entropy import (
    _conditional_rows,
    _entropy_literal_rows,
    _entropy_rows,
    _shannon_rows,
    _spec_axes,
    _spec_view,
)
from entrokit.properties import JOINT3, K_RANGE, R_RANGE, SIZE_RANGE, _law_side
from entrokit.verify import (
    _REGISTRY,
    IDENTITY_TOL,
    INEQUALITY_TOL,
    TRIAL_CHUNK,
    _chunks,
    _key,
    _uniforms,
)


def _rows(cfg, name):
    """Every trial's CheckResult as the sweep's batches compute it."""
    return {
        c.start + i: c.result(i)
        for c in _chunks(_REGISTRY[name], cfg)
        for i in range(len(c.passed))
    }


def _bits(r):
    return (r.lhs.hex(), r.rhs.hex(), r.slack.hex(), r.passed, r.instance_digest)


class TestRegistry:
    def test_size(self):
        assert len(list_properties()) >= 25

    def test_names_unique(self):
        names = [n for n, _, _ in list_properties()]
        assert len(names) == len(set(names))

    def test_known_anchors(self):
        table = {n: a for n, a, _ in list_properties()}
        assert table["product_rule_1"] == "Lemma 2.4"
        assert table["information_monotonicity"] == "Theorem 4.7"
        assert table["chain_rule"] == "Theorem 3.6"
        assert table["log_sum_inequality"] == "Theorem 2.9"
        assert table["strong_subadditivity"] == "Theorem 3.11"

    def test_kinds(self):
        for _, _, kind in list_properties():
            assert kind in ("identity", "inequality")

    def test_expected_members_present(self):
        names = {n for n, _, _ in list_properties()}
        expected = {
            "product_rule_1", "product_rule_2", "inversion", "quotient",
            "power_rule", "legacy_product_rule", "log_sum_inequality",
            "chain_rule", "conditional_reduces_entropy", "independence_rule",
            "entropy_pseudo_additivity", "subadditivity", "conditional_comparison",
            "strong_subadditivity", "corollary_3_7", "corollary_3_8",
            "entropy_r_independence", "shannon_limit",
            "divergence_nonnegativity", "permutation_symmetry", "zero_extension",
            "divergence_pseudo_additivity", "joint_convexity",
            "information_monotonicity", "divergence_r_independence",
            "definitional_equivalence", "kl_limit",
            "hessian_separability", "metric_oracle_agreement",
            "potential_curvature", "metric_positive_definite", "taylor_expansion",
        }
        assert expected <= names


class TestEngine:
    def test_single_trial_chain_rule(self):
        report = run_suite(SweepConfig(seed=1, trials=1, properties=("chain_rule",)))
        assert len(report.properties) == 1
        prop = report.properties[0]
        assert prop.passes == 1 and prop.fails == 0

    def test_coverage_all_properties_run(self):
        report = run_suite(SweepConfig(seed=3, trials=3))
        assert report.all_passed
        assert len(report.properties) == len(list_properties())
        for prop in report.properties:
            assert prop.passes + prop.fails == 3

    def test_determinism_byte_identical(self):
        cfg = SweepConfig(seed=99, trials=10)
        a = run_suite(cfg).to_json()
        b = run_suite(cfg).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_suite(SweepConfig(seed=1, trials=5, properties=("chain_rule",)))
        b = run_suite(SweepConfig(seed=2, trials=5, properties=("chain_rule",)))
        assert a.to_json() != b.to_json()

    def test_order_independence(self):
        cfg = SweepConfig(seed=7, trials=20, properties=("subadditivity",))
        (in_order,) = run_suite(cfg).properties
        rows = _rows(cfg, "subadditivity")
        shuffled = {t: run_single(cfg, "subadditivity", t) for t in (13, 2, 19, 0, 7, 5,
                                                                     11, 3, 17, 1, 9, 15,
                                                                     4, 18, 6, 12, 8, 16,
                                                                     10, 14)}
        assert shuffled == rows
        assert in_order.passes == sum(r.passed for r in rows.values())
        assert in_order.worst_slack == min(r.slack for r in rows.values())

    def test_concurrent_trials_match_sequential(self):
        # trials are pure functions of (seed, property, trial), so running
        # them across threads must reproduce the sequential batch
        from concurrent.futures import ThreadPoolExecutor

        cfg = SweepConfig(seed=9, trials=16, properties=("chain_rule",))
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda t: run_single(cfg, "chain_rule", t), range(16))
            )
        assert results == list(_rows(cfg, "chain_rule").values())

    @pytest.mark.parametrize("name", list(_REGISTRY))
    def test_batch_rows_equal_run_single(self, name):
        # run_single is the batched check on a batch of one; rows on both
        # sides of a chunk boundary regenerate the same blocks bit for bit
        for seed in (0, 17):
            cfg = SweepConfig(seed=seed, trials=TRIAL_CHUNK + 2)
            rows = _rows(cfg, name)
            assert len(rows) == cfg.trials
            for t in (0, 1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1):
                assert _bits(run_single(cfg, name, t)) == _bits(rows[t]), (seed, t)

    def test_instance_laws(self):
        # over 2000 trials every support size occurs and every k, r lies in range
        cfg = SweepConfig(seed=4, trials=2000)

        def field(name, key):
            return np.concatenate(
                [np.reshape(c.out.fields[key], (len(c.passed), -1))
                 for c in _chunks(_REGISTRY[name], cfg)]
            )

        lo, hi = SIZE_RANGE
        assert set(field("divergence_nonnegativity", "n").ravel()) == set(range(lo, hi + 1))
        shape2 = field("chain_rule", "shape")
        shape3 = field("corollary_3_7", "shape")
        for axis in range(2):
            assert set(shape2[:, axis]) == set(range(lo, hi + 1))
        for axis, cap in enumerate(JOINT3):
            assert set(shape3[:, axis]) == set(range(lo, cap + 1))
        for name in ("product_rule_1", "chain_rule", "joint_convexity", "taylor_expansion"):
            k, r = field(name, "k"), field(name, "r")
            assert np.all((K_RANGE[0] < k) & (k < K_RANGE[1])), name
            assert np.all((R_RANGE[0] < r) & (r < R_RANGE[1])), name
        for key in ("r1", "r2"):
            r = field("entropy_r_independence", key)
            assert np.all((R_RANGE[0] < r) & (r < R_RANGE[1]))

    def test_run_single_reproducible(self):
        cfg = SweepConfig(seed=5, trials=10)
        a = run_single(cfg, "divergence_nonnegativity", 4)
        b = run_single(cfg, "divergence_nonnegativity", 4)
        assert a == b
        assert isinstance(a, CheckResult)
        assert a.instance_digest.startswith("seed=")

    def test_taylor_expansion_default_sweep_green(self):
        # the shipped `entrokit verify --trials 1000` sweep at seed 0
        cfg = SweepConfig(seed=0, trials=1000, properties=("taylor_expansion",))
        (prop,) = run_suite(cfg).properties
        assert prop.fails == 0

    def test_trial_zero_equality_cases(self):
        for seed in range(50):
            cfg = SweepConfig(seed=seed, trials=1)
            for name in ("divergence_nonnegativity", "log_sum_inequality",
                         "information_monotonicity", "conditional_reduces_entropy"):
                assert run_single(cfg, name, 0).slack == 0.0, (seed, name)

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SweepConfig(trials=1, properties=("no_such_property",)))
        for name in ("no_such_property", ["chain_rule"], None):
            with pytest.raises(ConfigError):
                run_single(SweepConfig(trials=1), name, 0)
        # a bare name is not split into characters
        for properties in ("chain_rule", 5, ("chain_rule", 5)):
            with pytest.raises(ConfigError):
                SweepConfig(properties=properties)
        assert SweepConfig(properties=iter(["chain_rule"])).properties == ("chain_rule",)
        # trials are non-negative integers
        for trial in (-1, 1.5, "3", None):
            with pytest.raises(ConfigError):
                run_single(SweepConfig(trials=1), "chain_rule", trial)
        assert run_single(SweepConfig(), "chain_rule", np.int64(2)).trial_index == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0)
        for tol in (0.0, -1e-3, float("nan"), "1e-3", 1e-3 + 0j, True, float("inf")):
            with pytest.raises(ConfigError):
                SweepConfig(tol=tol)
        # seeds and trial counts must be integers, not values that int() accepts
        for seed in (1.7, -0.5, "3", 2.0, -1, 2**64):
            with pytest.raises(ConfigError):
                SweepConfig(seed=seed)
        for trials in (2.5, "10", None):
            with pytest.raises(ConfigError):
                SweepConfig(trials=trials)
        # an empty selection would report green over zero properties
        with pytest.raises(ConfigError):
            SweepConfig(properties=())
        # and so would an empty name, which names no property
        for properties in (("",), ("chain_rule", "")):
            with pytest.raises(ConfigError, match="property names must be non-empty"):
                SweepConfig(properties=properties)

    def test_numpy_integers_become_ints(self):
        cfg = SweepConfig(np.uint64(3), np.int64(1), properties=("chain_rule",))
        assert type(cfg.seed) is int and type(cfg.trials) is int
        assert json.loads(run_suite(cfg).to_json())["config"]["seed"] == 3

    def test_forced_failures_are_recorded(self):
        # an impossibly tight tolerance turns benign rounding into failures
        cfg = SweepConfig(seed=11, trials=30, tol=1e-30, properties=("product_rule_1",))
        report = run_suite(cfg)
        prop = report.properties[0]
        assert not report.all_passed
        assert prop.fails > 0
        assert prop.passes + prop.fails == 30
        assert len(prop.failures) <= 10
        trials = [f.trial_index for f in prop.failures]
        assert trials == sorted(trials)
        for f in prop.failures:
            assert not f.passed
            assert abs(f.slack) > 1e-30

    def test_check_result_invariant(self):
        # passed <=> |slack| <= tol for identities, slack >= -tol for inequalities
        cfg = SweepConfig(seed=13, trials=5)
        for name, _, kind in list_properties():
            tol = _REGISTRY[name].tol
            for t in range(3):
                res = run_single(cfg, name, t)
                assert type(res.passed) is bool
                if kind == "identity":
                    assert res.passed == (abs(res.slack) <= tol)
                else:
                    assert res.passed == (res.slack >= -tol)

    def test_default_tolerances(self):
        overrides = {"hessian_separability": 1e-8, "metric_oracle_agreement": 1e-5,
                     "potential_curvature": 1e-6}
        for name, _, kind in list_properties():
            default = IDENTITY_TOL if kind == "identity" else INEQUALITY_TOL
            assert _REGISTRY[name].tol == overrides.get(name, default)

    def test_entropy_law_sides_match_direct_calls(self):
        # every side of every _entropy_law against the library calls it stands
        # for: bit for bit on the unpadded joint, which has no zero cells, and
        # on a zero-padded batch, whose sums regroup, within 4 ulp per term of
        # its largest term
        params = DeformParams(0.3, 0.8)
        j2 = sample_distribution((3, 4), 7)
        j3 = sample_distribution((3, 4, 2), 8)

        def padded(j):
            batch = np.zeros((1,) + {2: (16, 16), 3: JOINT3}[j.ndim])
            batch[(0,) + tuple(slice(n) for n in j.shape)] = j.p
            return batch

        def s(d):
            return entropy(d, params).value

        def c(j, spec):
            return conditional_entropy(j, params, spec).value

        cases = [
            (j2, "XY", [s(j2)]),
            (j2, "X", [s(j2.marginal(0))]),
            (j2, "Y", [s(j2.marginal(1))]),
            (j2, "Y|X", [c(j2, "Y_given_X")]),
            (j2, "X + Y|X", [s(j2.marginal(0)), c(j2, "Y_given_X")]),
            (j2, "X + Y", [s(j2.marginal(0)), s(j2.marginal(1))]),
            (j2, "X + Y - XY", [s(j2.marginal(0)), s(j2.marginal(1)), -s(j2)]),
            (j2, "Y - Y|X", [s(j2.marginal(1)), -c(j2, "Y_given_X")]),
            (j3, "XYZ", [s(j3)]),
            (j3, "Z", [s(j3.marginal(2))]),
            (j3, "Y|Z", [c(j3, "Y_given_Z")]),
            (j3, "Y|XZ", [c(j3, "Y_given_XZ")]),
            (j3, "XY|Z", [c(j3, "XY_given_Z")]),
            (j3, "X|Z", [c(j3, "X_given_Z")]),
            (j3, "XZ + YZ", [s(j3.marginal(0, 2)), s(j3.marginal(1, 2))]),
            (j3, "XYZ + Z", [s(j3), s(j3.marginal(2))]),
            (j3, "XY|Z + Z", [c(j3, "XY_given_Z"), s(j3.marginal(2))]),
            (j3, "X|Z + Y|XZ", [c(j3, "X_given_Z"), c(j3, "Y_given_XZ")]),
        ]
        k = np.array([[params.k]])
        for j, side, terms in cases:
            (exact,) = _law_side(side)(j.p[np.newaxis], k).ravel()
            assert exact.hex() == sum(terms).hex(), side
            (got,) = _law_side(side)(padded(j), k).ravel()
            bound = 4 * len(terms) * np.spacing(max(map(abs, terms)))
            assert abs(got - sum(terms)) <= bound, side

    def test_kernel_rows_are_the_public_calls(self):
        # the sweep's batched sums are the library's: each row of a batch of
        # random vectors and joints equals the public call on that row, bit
        # for bit; the joints have an axis of 8 or more cells, where numpy
        # sums a strided axis in another order than a contiguous one
        params = DeformParams(0.3, 0.8)
        k, rng = params.k, np.random.default_rng(21)

        def batch(shape):
            return np.stack([sample_distribution(shape, rng).p for _ in range(5)])

        def same(rows, public, *arrays):
            for row, *cells in zip(rows[:, 0], *arrays):
                assert row.hex() == float(public(*map(Distribution, cells))).hex()

        p, q = batch(11), batch(11)
        same(_entropy_rows(p, k), lambda d: entropy(d, params).value, p)
        same(_entropy_literal_rows(p, params), lambda d: entropy_literal(d, params), p)
        same(_shannon_rows(p), shannon_entropy, p)
        same(_divergence_rows(p, q, k), lambda a, b: divergence(a, b, params).value, p, q)
        same(_kl_rows(p, q), kl_divergence, p, q)
        for form in ("pq", "qp"):
            same(_divergence_literal_rows(p, q, params, form),
                 lambda a, b: divergence_literal(a, b, params, form), p, q)
        for shape in ((9, 10), (8, 9, 3)):
            j = batch(shape)
            same(_entropy_rows(j, k), lambda d: entropy(d, params).value, j)
            letters = "XYZ"[: len(shape)]
            for of_size in range(1, len(shape)):
                for of in itertools.permutations(letters, of_size):
                    rest = [c for c in letters if c not in of]
                    for given in itertools.chain.from_iterable(
                        itertools.permutations(rest, n) for n in range(1, len(rest) + 1)
                    ):
                        spec = "".join(of) + "_given_" + "".join(given)
                        axes = _spec_axes(spec, len(shape))
                        rows = _conditional_rows(_spec_view(j, *axes), k, len(axes[1]))
                        same(rows, lambda d: conditional_entropy(d, params, spec).value, j)


    def test_hessian_separability_catches_a_coupling_kernel(self, monkeypatch):
        # a divergence kernel that takes each cell's term on its row
        # renormalised couples the cells: every mixed difference picks up the
        # normalisation's curvature, far beyond the 1e-8 tolerance
        cfg = SweepConfig(seed=0, trials=200, properties=("hessian_separability",))
        assert run_suite(cfg).all_passed
        module = sys.modules["entrokit.divergence"]  # entrokit.divergence is the function
        terms = module._divergence_terms
        monkeypatch.setattr(module, "_divergence_terms",
                            lambda p, q, k: terms(p / p.sum(axis=1, keepdims=True), q, k))
        (prop,) = run_suite(cfg).properties
        assert prop.fails == 200 and abs(prop.worst_slack) > 1e-3

    def test_metric_hessian_structure_catches_a_wrong_coefficient(self, monkeypatch):
        # a metric coefficient 1e-9 off, patched wherever a module binds it,
        # moves the library's diagonal but not the divergence's second
        # derivative that the property compares it with
        cfg = SweepConfig(seed=0, trials=200, properties=("metric_hessian_structure",))
        assert run_suite(cfg).all_passed
        original = sys.modules["entrokit.geometry"].metric_coefficient
        mutant = lambda params, convention="derived": original(params, convention) * (1 + 1e-9)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "entrokit" and vars(module).get("metric_coefficient") is original:
                monkeypatch.setattr(module, "metric_coefficient", mutant)
        (prop,) = run_suite(cfg).properties
        assert prop.fails == 200 and abs(prop.worst_slack) > 1e-10

    @pytest.mark.parametrize("start", [0, 3, 10**6])
    def test_uniforms_are_the_centred_top_52_bits(self, start):
        # the exponent-bit construction is (b + 1/2) 2^-52 of the top 52 bits
        # b of each Philox draw, bit for bit, at every registered width
        for width in sorted({s.width for s in _REGISTRY.values()}):
            key = _key(7, f"width {width}")
            raw = np.random.Philox(key=key, counter=start * width // 4).random_raw((5, width))
            want = ((raw >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
            assert _uniforms(key, width, start, 5).tobytes() == want.tobytes()


class TestReportShape:
    def test_json_schema(self):
        report = run_suite(SweepConfig(seed=2, trials=2, properties=("chain_rule",)))
        payload = json.loads(report.to_json())
        assert set(payload) == {"config", "properties"}
        assert payload["config"]["seed"] == 2
        assert payload["config"]["trials"] == 2
        assert payload["config"]["properties"] == ["chain_rule"]
        (prop,) = payload["properties"]
        assert {"name", "anchor", "kind", "pass", "fail", "worst_slack",
                "failures"} <= set(prop)
        assert prop["pass"] == 2
        assert prop["fail"] == 0
        assert prop["failures"] == []

    def test_counts_sum_to_trials(self):
        report = run_suite(SweepConfig(seed=4, trials=7))
        for prop in report.properties:
            assert prop.passes + prop.fails == 7

    def test_selection_preserves_registry_order(self):
        report = run_suite(
            SweepConfig(seed=1, trials=1, properties=("chain_rule", "product_rule_1"))
        )
        # registry order, not request order
        assert [p.name for p in report.properties] == ["product_rule_1", "chain_rule"]
