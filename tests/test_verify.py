"""Tests for the property-sweep engine itself: registry coverage,
determinism, order independence, and failure reporting."""

import json

import numpy as np
import pytest

from entrokit import (
    CheckResult,
    ConfigError,
    SweepConfig,
    list_properties,
    run_single,
    run_suite,
)
from entrokit.verify import _REGISTRY, _aggregate


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
        in_order = run_suite(cfg).properties[0]
        spec = _REGISTRY["subadditivity"]
        shuffled = [run_single(cfg, "subadditivity", t) for t in (13, 2, 19, 0, 7, 5,
                                                                  11, 3, 17, 1, 9, 15,
                                                                  4, 18, 6, 12, 8, 16,
                                                                  10, 14)]
        assert _aggregate(spec, shuffled) == in_order

    def test_concurrent_trials_match_sequential(self):
        # trials are pure functions of (seed, property, trial), so running
        # them across threads must reproduce the sequential aggregate
        from concurrent.futures import ThreadPoolExecutor

        cfg = SweepConfig(seed=9, trials=16, properties=("chain_rule",))
        sequential = run_suite(cfg).properties[0]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda t: run_single(cfg, "chain_rule", t), range(16))
            )
        assert _aggregate(_REGISTRY["chain_rule"], results) == sequential

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
        cfg = SweepConfig(seed=21, trials=1)
        assert run_single(cfg, "divergence_nonnegativity", 0).slack == 0.0
        assert run_single(cfg, "log_sum_inequality", 0).slack == 0.0
        assert run_single(cfg, "information_monotonicity", 0).slack == 0.0
        assert run_single(cfg, "conditional_reduces_entropy", 0).slack == 0.0

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SweepConfig(trials=1, properties=("no_such_property",)))
        with pytest.raises(ConfigError):
            run_single(SweepConfig(trials=1), "no_such_property", 0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0)
        with pytest.raises(ConfigError):
            SweepConfig(tol=0.0)
        # seeds and trial counts must be integers, not values that int() accepts
        for seed in (1.7, -0.5, "3", 2.0, -1, 2**64):
            with pytest.raises(ConfigError):
                SweepConfig(seed=seed)
        for trials in (2.5, "10", None):
            with pytest.raises(ConfigError):
                SweepConfig(trials=trials)

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
        for name, _, kind in list_properties()[:10]:
            for t in range(3):
                res = run_single(cfg, name, t)
                spec = _REGISTRY[name]
                tol = cfg.tol or spec.tol or (1e-12 if kind == "identity" else 1e-9)
                if kind == "identity":
                    assert res.passed == (abs(res.slack) <= tol)
                else:
                    assert res.passed == (res.slack >= -tol)


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
