"""Tests for the property-sweep engine itself: registry coverage,
determinism, order independence, and failure reporting."""

import hashlib
import inspect
import itertools
import json
import operator
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import entrokit
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
from entrokit.deformed_log import _deformed
from entrokit.distributions import _marginal_rows, _rowsum
from entrokit.divergence import _divergence_literal_rows, _divergence_rows, _kl_rows
from entrokit.entropy import (
    _conditional_rows,
    _entropy_literal_rows,
    _entropy_rows,
    _shannon_rows,
    _spec_axes,
)
from entrokit.cli import main
from entrokit.properties import (_KINDS, JOINT3, K_RANGE, R_RANGE, SIZE_RANGE, _Draw, _Instance,
                                 _law_side, _Params)
from entrokit.verify import (
    _REGISTRY,
    IDENTITY_TOL,
    INEQUALITY_TOL,
    TRIAL_CHUNK,
    _chunks,
    _digest,
    _key,
    _outcome,
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


def _patch_everywhere(monkeypatch, original, mutant):
    """Bind mutant in place of the function original wherever an entrokit
    module binds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "entrokit" and vars(module).get(original.__name__) is original:
            monkeypatch.setattr(module, original.__name__, mutant)


def _moved_input(push):
    """A push that first moves 10% of input 0's mass to input 1."""

    def mutant(w, p):
        p = p.copy()
        p[..., 1] += 0.1 * p[..., 0]
        p[..., 0] *= 0.9
        return push(w, p)

    return mutant


# A mutant of each batched form that a public operator shares with the sweep,
# and the failures it causes per property at seed 0 over 200 trials.
SHARED_FORM_MUTANTS = {
    "outer product a x a": ("distributions", "_outer_rows", lambda f: lambda a, b: f(a, a), {
        "independence_rule": 198,
        "entropy_pseudo_additivity": 199,
        "divergence_pseudo_additivity": 199,
    }),
    "mixture at 1 - lambda": (
        "distributions", "_mix_rows", lambda f: lambda a, b, lam: f(a, b, 1.0 - lam),
        {"joint_convexity": 188},
    ),
    "quadratic form x (1 + 1e-4)": (
        "geometry", "_quadratic_rows", lambda f: lambda p, dp, prm: f(p, dp, prm) * (1 + 1e-4),
        {"taylor_expansion": 153},
    ),
    "quadratic form x (1 + 1e-6)": (
        "geometry", "_quadratic_rows", lambda f: lambda p, dp, prm: f(p, dp, prm) * (1 + 1e-6),
        {"taylor_expansion": 8},
    ),
    "metric diagonal x (1 + 1e-9)": (
        "geometry", "_metric_rows",
        lambda f: lambda p, prm, convention="derived": f(p, prm, convention) * (1 + 1e-9),
        {"metric_hessian_structure": 200},
    ),
    # A blind spot: the same change made to both pushes is itself a channel,
    # and information monotonicity holds for every channel.
    "push moving 10% of input 0 (blind spot)": ("distributions", "_push_rows", _moved_input, {}),
}


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


# The registry in run order: name, anchor, kind, tolerance and width. A width
# is the uniforms a trial owns, so a changed width re-draws every trial of its
# property; the whole-suite report pins, which would also catch it, skip on
# another libm.
REGISTRY = [
    ("product_rule_1", "Lemma 2.4", "identity", 1e-12, 260),
    ("product_rule_2", "Lemma 2.5", "identity", 1e-12, 260),
    ("inversion", "Corollary 2.6", "identity", 1e-12, 260),
    ("quotient", "Corollary (quotient rule)", "identity", 1e-12, 260),
    ("power_rule", "Lemma (power rule)", "identity", 1e-12, 132),
    ("convexity_weighted_neg", "Lemma 2.7", "inequality", 1e-09, 4),
    ("convexity_logsum_weight", "Lemma 2.8", "inequality", 1e-09, 4),
    ("legacy_shape", "Theorem 2.1", "inequality", 1e-09, 4),
    ("legacy_product_rule", "Eq. (10)", "identity", 1e-12, 260),
    ("log_sum_inequality", "Theorem 2.9", "inequality", 1e-09, 36),
    ("chain_rule", "Theorem 3.6", "identity", 1e-12, 260),
    ("conditional_reduces_entropy", "Lemma 3.5", "inequality", 1e-09, 260),
    ("joint_monotonicity", "Theorem 3.6 (consequence)", "inequality", 1e-09, 260),
    ("independence_rule", "Lemma 3.4", "identity", 1e-12, 36),
    ("entropy_pseudo_additivity", "Eq. (29)", "identity", 1e-12, 36),
    ("subadditivity", "Theorem 3.9", "inequality", 1e-09, 260),
    ("conditional_comparison", "Lemma 3.10", "inequality", 1e-09, 520),
    ("strong_subadditivity", "Theorem 3.11", "inequality", 1e-09, 520),
    ("corollary_3_7", "Corollary 3.7", "identity", 1e-12, 520),
    ("corollary_3_8", "Corollary 3.8", "identity", 1e-12, 520),
    ("conditional_joint_monotonicity", "Corollary 3.8 (consequence)", "inequality", 1e-09, 520),
    ("mutual_entropy_consistency", "Theorem 3.6 (mutual form)", "identity", 1e-12, 260),
    ("entropy_r_independence", "observed r-cancellation", "identity", 1e-12, 20),
    ("shannon_limit", "Shannon limit", "inequality", 1e-09, 20),
    ("divergence_nonnegativity", "Lemma 4.2", "inequality", 1e-09, 36),
    ("identity_of_indiscernibles", "Lemma 4.2 (equality case)", "inequality", 1e-09, 52),
    ("permutation_symmetry", "Lemma 4.3", "identity", 1e-12, 52),
    ("zero_extension", "Lemma 4.4", "identity", 1e-12, 36),
    ("divergence_pseudo_additivity", "Theorem 4.5", "identity", 1e-12, 68),
    ("joint_convexity", "Theorem 4.6", "inequality", 1e-09, 68),
    ("information_monotonicity", "Theorem 4.7", "inequality", 1e-09, 340),
    ("divergence_r_independence", "observed r-cancellation", "identity", 1e-12, 36),
    ("definitional_equivalence", "Definition 4.1", "identity", 1e-12, 36),
    ("kl_limit", "KL limit", "inequality", 1e-09, 36),
    ("hessian_separability", "induced metric (off-diagonal vanishing)", "identity", 1e-08, 20),
    ("metric_oracle_agreement", "induced metric (diagonal oracle)", "identity", 1e-05, 20),
    ("metric_hessian_structure", "Theorem 5.1", "identity", 1e-12, 20),
    ("potential_curvature", "Theorem 5.1", "identity", 1e-06, 8),
    ("metric_positive_definite", "induced metric (positive definiteness)", "inequality", 1e-09,
     20),
    ("taylor_expansion", "induced metric (quadratic expansion)", "inequality", 1e-09, 52),
]
# SHA-256 of what `entrokit verify --list` prints
LIST_SHA256 = "eb1c43ecda054bbea57154c292761d470f4c1547af65bad8c91f0a31eb43fc3f"


def _plain(value):
    """An array rebuilt from its Python values, sharing nothing with it;
    any other value as it is."""
    if isinstance(value, np.ndarray):
        return np.array(value.tolist(), dtype=value.dtype)
    return value


def _rebuilt(instance: _Instance) -> _Instance:
    """The instance made again from plain arrays: no _Draw, no Philox."""
    shown = {n: _plain(v) for n, v in instance.shown.items()}
    params = instance.params and _Params(_plain(instance.params.k), _plain(instance.params.r))
    rest = {n: _plain(v) for n, v in vars(instance).items()
            if n not in ("shown", "params", *shown)}
    return _Instance(shown, params, **rest)


class TestLawsApartFromInstances:
    def test_the_registry_is_pinned(self, capsys):
        specs = [(s.name, s.anchor, s.kind, s.tol, s.width) for s in _REGISTRY.values()]
        assert specs == REGISTRY
        assert main(["verify", "--list"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LIST_SHA256

    def test_a_law_takes_its_instance_alone(self):
        # no draw and no trial column: what a law reads is its instance
        for spec in _REGISTRY.values():
            assert len(inspect.signature(spec.law).parameters) == 1, spec.name

    @pytest.mark.parametrize("name", list(_REGISTRY))
    def test_a_law_on_its_instance_rebuilt_from_plain_arrays(self, name):
        # the trial's instance, made again from plain arrays, gives the law
        # run_single's lhs, rhs and slack bit for bit, and the digest its fields
        spec, cfg = _REGISTRY[name], SweepConfig(seed=3, trials=3)
        for t in range(3):
            u = _uniforms(_key(cfg.seed, name), spec.width, t, 1)
            instance = _rebuilt(spec.maker(_Draw(u), np.array([[t]])))
            got = _outcome(spec.kind, *spec.law(instance))
            want = run_single(cfg, name, t)
            assert [float(a[0]).hex() for a in got] == [want.lhs.hex(), want.rhs.hex(),
                                                        want.slack.hex()], t
            digest = _digest(instance.fields(spec.fields), 0)
            assert want.instance_digest == f"seed={cfg.seed};{digest}", t

    def test_a_law_on_an_instance_of_the_library(self):
        # an instance built by hand from the public samplers, unpadded
        params = DeformParams(0.3, 0.8)
        p, q = sample_distribution(7, 1), sample_distribution(7, 2)
        pair = _Instance({"n": 7}, _Params(np.array([[0.3]]), np.array([[0.8]])),
                         p=p.p[np.newaxis], q=q.p[np.newaxis])
        lhs, rhs = _REGISTRY["divergence_nonnegativity"].law(pair)
        assert lhs[0, 0].hex() == divergence(p, q, params).value.hex() and rhs == 0.0


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
                [np.reshape(c.fields[key], (len(c.passed), -1))
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

    @pytest.mark.parametrize("tol, value",
                             [(Fraction(1, 10**9), 1e-9), (1, 1.0), (np.float32(0.5), 0.5)])
    def test_a_real_tolerance_is_reported_as_its_float(self, tol, value):
        cfg = SweepConfig(trials=1, tol=tol, properties=("chain_rule",))
        assert type(cfg.tol) is float and cfg.tol == value
        assert json.dumps(json.loads(run_suite(cfg).to_json())["config"]["tol"]) == repr(value)

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
                        o, g = _spec_axes(spec, len(shape))
                        rows = _conditional_rows(_marginal_rows(j, g + o), k, len(g))
                        same(rows, lambda d: conditional_entropy(d, params, spec).value, j)


    def test_hessian_separability_catches_a_coupling_kernel(self, monkeypatch):
        # a divergence kernel that takes each cell's term on its row
        # renormalised couples the cells: every mixed difference picks up the
        # normalisation's curvature, far beyond the 1e-8 tolerance
        cfg = SweepConfig(seed=0, trials=200, properties=("hessian_separability",))
        assert run_suite(cfg).all_passed
        module = sys.modules["entrokit.divergence"]  # entrokit.divergence is the function
        terms = module._pair_terms  # every divergence sum takes its terms from it
        monkeypatch.setattr(module, "_pair_terms", lambda p, q, *rest: terms(
            p / p.sum(axis=1, keepdims=True), q, *rest))
        (prop,) = run_suite(cfg).properties
        assert prop.fails == 200 and abs(prop.worst_slack) > 1e-3

    def test_entropy_laws_catch_a_zero_cell_that_adds_a_term(self, monkeypatch):
        # every entropy-type sum takes its terms from _cell_terms: one that
        # hands the kernel a zero cell as p = 1/2, not p = 1, makes each
        # padding cell add a term; the laws below catch it at 50 trials. The
        # other four that reach _cell_terms are blind to it: both sides of
        # entropy_r_independence and shannon_limit gain the same terms, up to
        # the limit's tolerance, and the larger side of joint_monotonicity and
        # conditional_joint_monotonicity has the more padding cells
        module = sys.modules["entrokit.entropy"]  # entrokit.entropy is the function
        terms = module._cell_terms
        monkeypatch.setattr(module, "_cell_terms", lambda p, kernel, *args: terms(
            np.where(p > 0, p, 0.5), kernel, *args))
        report = run_suite(SweepConfig(seed=0, trials=50))
        assert {p.name: p.fails for p in report.properties if p.fails} == {
            "chain_rule": 50,
            "conditional_reduces_entropy": 48,
            "independence_rule": 48,
            "entropy_pseudo_additivity": 50,
            "subadditivity": 50,
            "conditional_comparison": 49,
            "strong_subadditivity": 50,
            "corollary_3_7": 50,
            "corollary_3_8": 50,
            "mutual_entropy_consistency": 50,
        }

    def test_metric_hessian_structure_catches_a_wrong_coefficient(self, monkeypatch):
        # a metric coefficient 1e-9 off, patched wherever a module binds it,
        # moves the library's diagonal but not the divergence's second
        # derivative that the property compares it with
        cfg = SweepConfig(seed=0, trials=200, properties=("metric_hessian_structure",))
        assert run_suite(cfg).all_passed
        original = sys.modules["entrokit.geometry"].metric_coefficient
        _patch_everywhere(monkeypatch, original,
                          lambda params, convention="derived": original(params, convention) * (1 + 1e-9))
        (prop,) = run_suite(cfg).properties
        assert prop.fails == 200 and abs(prop.worst_slack) > 1e-10

    @pytest.mark.parametrize("mutant", SHARED_FORM_MUTANTS)
    def test_a_wrong_shared_form_fails_its_laws(self, monkeypatch, mutant):
        # the operators' batched forms run in the sweep: a mutant of one
        # fails the laws that go through it, and no other property
        module, form, mutate, fails = SHARED_FORM_MUTANTS[mutant]
        original = getattr(sys.modules[f"entrokit.{module}"], form)
        _patch_everywhere(monkeypatch, original, mutate(original))
        report = run_suite(SweepConfig(seed=0, trials=200))
        assert {p.name: p.fails for p in report.properties if p.fails} == fails

    @pytest.mark.parametrize("start", [0, 3, 10**6])
    def test_uniforms_are_the_centred_top_52_bits(self, start):
        # the exponent-bit construction is (b + 1/2) 2^-52 of the top 52 bits
        # b of each Philox draw, bit for bit, at every registered width
        for width in sorted({s.width for s in _REGISTRY.values()}):
            key = _key(7, f"width {width}")
            assert _uniforms(key, width, start, 5).tobytes() == _fresh(key, width, start, 5)

    def test_uniforms_match_a_fresh_philox_from_four_threads(self):
        # the re-keyed generator of each thread against a Philox constructed
        # for the block, at counters that carry into every word of the
        # counter, for random 128-bit keys and the properties' own, run by
        # four threads at once on four properties of different widths
        rng = np.random.default_rng(2024)
        counters = [0, 2**64 - 1, 2**64, 2**128, 2**192,
                    int.from_bytes(rng.bytes(32), "little") >> 6]  # 250 bits
        keys = [int.from_bytes(rng.bytes(16), "little") for _ in range(4)]
        names = ["chain_rule", "information_monotonicity", "kl_limit", "potential_curvature"]
        assert len({_REGISTRY[n].width for n in names}) == 4
        barrier = threading.Barrier(len(names))

        def check(name):
            width = _REGISTRY[name].width
            barrier.wait(timeout=60)
            misses = []
            for _ in range(5):
                for key in keys + [_key(3, name)]:
                    for counter in counters:
                        # width 4 reads from the counter itself
                        for w, start in ((4, counter), (width, counter // (width // 4))):
                            if _uniforms(key, w, start, 3).tobytes() != _fresh(key, w, start, 3):
                                misses.append((key, w, start))
            return misses

        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            assert list(pool.map(check, names)) == [[]] * len(names)

    @pytest.mark.parametrize("kind", ["identity", "inequality"])
    def test_outcome_picks_what_take_along_axis_picks(self, kind):
        # random (T, m) rows of a few values, so that rows tie and hold
        # +-inf, against the broadcast and take_along_axis form, with each
        # side a row, a column or a scalar, and with a slack of the check's own
        rng = np.random.default_rng(5)
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 1.0, 2.0, np.inf])

        def rows(m):
            return rng.choice(values, size=(40, m))

        cases = [(rows(7), rows(7)), (rows(7), rows(1)), (rows(1), rows(7)), (rows(7), 0.0),
                 (rows(1), 1.0), (rows(1), rows(1))]
        with np.errstate(invalid="ignore"):
            for lhs, rhs in cases:
                slacks = [None, rng.standard_normal(np.broadcast(lhs, rhs).shape)]
                for slack in slacks:
                    got = _outcome(kind, lhs, rhs, slack)
                    want = _take_along_axis_outcome(kind, lhs, rhs, slack)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _fresh(key, width, start, count):
    """The bytes of the uniforms of a Philox constructed for the block."""
    raw = np.random.Philox(key=key, counter=start * width // 4).random_raw((count, width))
    return (((raw >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52).tobytes()


def _take_along_axis_outcome(kind, lhs, rhs, slack=None):
    """_outcome's (T,) lhs, rhs and slack, as picked over broadcast arrays."""
    rule = _KINDS[kind]
    lv, rv = np.broadcast_arrays(np.asarray(lhs, dtype=float), rhs)
    s = rule.slack(lv, rv) if slack is None else slack
    worst = np.argmax(rule.shortfall(s), axis=1)[:, None]
    return [np.take_along_axis(a, worst, axis=1)[:, 0] for a in (lv, rv, s)]


# Each public operator's batched form: the operator calls it on a batch of
# one, and the sweep on its padded batches.
SHARED_FORMS = {
    "Distribution.marginal": "_marginal_rows",
    "sample_distribution": "_simplex_rows",
    "sample_channel": "_simplex_rows",
    "product": "_outer_rows",
    "apply_channel": "_push_rows",
    "mix": "_mix_rows",
    "fisher_metric": "_metric_rows",
    "quadratic_form": "_quadratic_rows",
}

# Public entry points that no sweep property reaches, neither themselves nor
# through a batched _*_rows form that they call. The constructors are here
# because the sweep builds its padded instances as arrays, not as checked
# Distributions (it draws them through the samplers' _simplex_rows), and
# list_properties and run_single because they are the sweep's other entry
# points. ROADMAP items 9 and 10 bring the rest into the sweep. Of
# mutual_divergence, which calls _divergence_rows, the sweep reaches only
# that kernel: not its run maker of the product's cells, nor its checks of
# the product, and no law of mutual information runs on it.
NEVER_REACHED = {
    "make_distribution", "make_joint2", "make_joint3", "make_channel",
    "list_properties", "run_single", "ln_q", "mutual_entropy",
    "tsallis_entropy", "tsallis_divergence",
}


@pytest.fixture(scope="module")
def sweep_codes():
    """The code objects of every Python function that a 25-trial run_suite enters."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run_suite(SweepConfig(seed=0, trials=25))
    finally:
        sys.setprofile(previous)
    return entered


class TestSweepReach:
    def test_the_sweep_calls_each_operators_batched_form(self, sweep_codes):
        for public, form in SHARED_FORMS.items():
            fn = operator.attrgetter(public)(entrokit)
            assert form in fn.__code__.co_names  # the operator calls its form
            assert getattr(sys.modules[fn.__module__], form).__code__ in sweep_codes

    def test_the_entry_points_the_sweep_never_reaches(self, sweep_codes):
        def reached(fn):
            module = vars(sys.modules[fn.__module__])
            forms = [module[n] for n in fn.__code__.co_names if n.endswith("_rows") and n in module]
            return any(getattr(f, "__code__", None) in sweep_codes for f in [fn, *forms])

        public = {n: getattr(entrokit, n) for n in entrokit.__all__}
        public = {n: fn for n, fn in public.items() if inspect.isfunction(fn)}
        public["Distribution.marginal"] = Distribution.marginal
        assert {n for n, fn in public.items() if not reached(fn)} == NEVER_REACHED


class TestTrialRange:
    """Trials run from 0 to 2^63 - 1, the range of the int64 trial column."""

    def test_trials_beyond_the_column_are_rejected(self):
        cfg = SweepConfig(seed=0, trials=10)
        for name, trial in (("information_monotonicity", 2**63 + 1),
                            ("information_monotonicity", 2**63), ("chain_rule", 2**260)):
            with pytest.raises(ConfigError, match=r"trial must be < 2\*\*63"):
                run_single(cfg, name, trial)
        with pytest.raises(ConfigError, match=r"trials must be <= 2\*\*63"):
            SweepConfig(trials=2**63 + 1)
        assert SweepConfig(trials=2**63).trials == 2**63

    def test_the_last_trials_keep_their_parity(self):
        # odd trials draw deterministic channels, even ones random channels
        cfg = SweepConfig(seed=0, trials=10)
        for trial in (2**62 + 1, 2**63 - 1):
            digest = run_single(cfg, "information_monotonicity", trial).instance_digest
            assert "channel=deterministic" in digest, trial
        for trial in (2**62, 2**63 - 2):
            digest = run_single(cfg, "information_monotonicity", trial).instance_digest
            assert "channel=random" in digest, trial


# Properties that sum rows of more than 2^4 cells with numpy's pairwise tree,
# which runs of 2^4 cells regroup: entropies of joints, and the simplex draws
# of the random channels' columns of 18 outputs.
_REGROUPED_AT_LEAF_16 = {
    "chain_rule", "conditional_reduces_entropy", "joint_monotonicity",
    "entropy_pseudo_additivity", "subadditivity", "conditional_comparison",
    "strong_subadditivity", "corollary_3_7", "corollary_3_8",
    "conditional_joint_monotonicity", "mutual_entropy_consistency",
    "information_monotonicity",
}


class TestOneRunPaths:
    """Every sweep batch has at most _LEAF cells a row, one run, which
    _rowsum, _sum_terms and _deformed take without the run walker. With
    _LEAF patched to 2^4 in every entrokit module that binds it, the same
    batches go through the walker and must give the same bits."""

    @staticmethod
    def _small_leaf(monkeypatch):
        patched = 0
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "entrokit" and "_LEAF" in vars(module):
                monkeypatch.setattr(module, "_LEAF", 2**4)
                patched += 1
        assert patched >= 4  # distributions, deformed_log, entropy, divergence

    def test_properties_agree(self, monkeypatch):
        cfg = SweepConfig(seed=6, trials=40)
        names = [n for n in _REGISTRY if n not in _REGROUPED_AT_LEAF_16]
        one_run = {n: _rows(cfg, n) for n in names}
        self._small_leaf(monkeypatch)
        for name in names:
            assert _rows(cfg, name) == one_run[name], name

    @pytest.mark.parametrize("width", [1, 15, 16, 17, 19, 201, 256, 512])
    def test_kernels_agree(self, monkeypatch, width):
        rng = np.random.default_rng(width)
        p = rng.random((25, width)) * (rng.random((25, width)) < 0.7)
        q = rng.random((25, width)) + 0.1
        k = rng.uniform(0.05, 0.45, (25, 1))
        # multiples of 2^-20 below 1, whose every partial sum is exact
        dyadic = np.floor(p * 2**20) / 2**20

        scale = 2.0 ** -np.arange(25)[:, None]

        def kernels():
            return [_divergence_rows(p, q, k), _kl_rows(p, q),
                    _deformed(q, -k, 2.0 * k), _deformed(q.reshape(25, width, 1), 0.5, k[:, None]),
                    _rowsum(dyadic), _rowsum(dyadic, lambda run, c: run * c, scale)]

        one_run = [a.tobytes() for a in kernels()]
        self._small_leaf(monkeypatch)
        assert [a.tobytes() for a in kernels()] == one_run


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
