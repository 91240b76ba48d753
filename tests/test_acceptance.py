"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned here and nowhere else: identities
at 1e-12 (relative slack), inequalities at additive 1e-9, reduction and
geometry checks at their individually stated bounds.
"""

import time

import numpy as np

from entrokit import (
    DeformParams,
    Distribution,
    SweepConfig,
    divergence,
    divergence_literal,
    entropy,
    entropy_literal,
    fd_hessian,
    fisher_metric,
    hessian_potential,
    kl_divergence,
    legacy_Ln,
    metric_coefficient,
    PotentialCoefficients,
    quadratic_form,
    run_suite,
    sample_distribution,
    shannon_entropy,
    tsallis_divergence,
    tsallis_entropy,
)

IDENTITY_PROPERTIES = (
    "product_rule_1",
    "product_rule_2",
    "inversion",
    "quotient",
    "power_rule",
    "definitional_equivalence",
    "chain_rule",
    "corollary_3_7",
    "corollary_3_8",
    "entropy_pseudo_additivity",
    "divergence_pseudo_additivity",
    "independence_rule",
    "legacy_product_rule",
)

INEQUALITY_PROPERTIES = (
    "log_sum_inequality",
    "subadditivity",
    "conditional_reduces_entropy",
    "conditional_comparison",
    "strong_subadditivity",
    "divergence_nonnegativity",
    "joint_convexity",
    "information_monotonicity",
)


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")


def _pair(rng, n):
    return sample_distribution(n, rng), sample_distribution(n, rng)


def _interior(rng, n):
    e = rng.exponential(size=n)
    return Distribution(0.5 * e / e.sum() + 0.5 / n)


def test_criterion_1_identity_suite():
    # scalar identities run 128 instances per trial (128k >= 1e5); the
    # distribution identities run 1000 instances with support sizes 1-16
    t0 = time.time()
    report = run_suite(
        SweepConfig(seed=20260809, trials=1000, properties=IDENTITY_PROPERTIES)
    )
    elapsed = time.time() - t0
    worst = max(abs(p.worst_slack) for p in report.properties)
    ok = report.all_passed and worst <= 1e-12
    _emit(
        "criterion 1 (identity suite)",
        ok,
        f"13 identities x 1000 trials, worst |slack| = {worst:.3e} "
        f"(tol 1e-12), {elapsed:.1f}s",
    )
    assert report.all_passed
    assert worst <= 1e-12


def test_criterion_2_inequality_suite():
    t0 = time.time()
    report = run_suite(
        SweepConfig(seed=20260809, trials=10_000, properties=INEQUALITY_PROPERTIES)
    )
    elapsed = time.time() - t0
    violations = sum(p.fails for p in report.properties)
    worst = min(p.worst_slack for p in report.properties)
    ok = violations == 0
    _emit(
        "criterion 2 (inequality suite)",
        ok,
        f"8 inequalities x 10000 trials, {violations} violations, "
        f"worst slack = {worst:+.3e} (tol -1e-9), {elapsed:.1f}s",
    )
    assert violations == 0


def test_criterion_3_reduction_suite():
    rng = np.random.default_rng(3)
    worst_entropy = 0.0
    for q in (1.2, 1.5, 2.0):
        params = DeformParams((q - 1) / 2, (q - 1) / 2)
        for _ in range(100):
            d = sample_distribution(int(rng.integers(1, 17)), rng)
            lhs = entropy(d, params).value
            rhs = tsallis_entropy(d, q)
            worst_entropy = max(worst_entropy, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst_entropy <= 1e-12

    worst_div = 0.0
    for q in (0.5, 0.8):
        params = DeformParams((1 - q) / 2, (1 - q) / 2)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            p, qq = _pair(rng, n)
            lhs = divergence(p, qq, params).value
            rhs = tsallis_divergence(p, qq, q)
            worst_div = max(worst_div, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst_div <= 1e-12

    limit_params = DeformParams(1e-4, 1e-4)
    worst_shannon = worst_kl = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        d = sample_distribution(n, rng)
        ref = shannon_entropy(d)
        worst_shannon = max(
            worst_shannon, abs(entropy(d, limit_params).value - ref) / (1 + ref)
        )
        p, qq = _pair(rng, n)
        ref_kl = kl_divergence(p, qq)
        worst_kl = max(
            worst_kl, abs(divergence(p, qq, limit_params).value - ref_kl) / (1 + ref_kl)
        )
    ok = worst_shannon <= 1e-3 and worst_kl <= 1e-3
    _emit(
        "criterion 3 (reduction suite)",
        ok and worst_entropy <= 1e-12 and worst_div <= 1e-12,
        f"tsallis entropy {worst_entropy:.2e}, tsallis divergence {worst_div:.2e} "
        f"(tol 1e-12); shannon {worst_shannon:.2e}, kl {worst_kl:.2e} (tol 1e-3)",
    )
    assert worst_shannon <= 1e-3
    assert worst_kl <= 1e-3


def test_criterion_4_r_independence():
    rng = np.random.default_rng(4)
    r_values = (0.1, 0.5, 1.0, 2.0)
    worst = 0.0
    for _ in range(1000):
        k = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 17))
        d = sample_distribution(n, rng)
        p, q = _pair(rng, n)
        svals = [entropy(d, DeformParams(k, r)).value for r in r_values]
        svals += [entropy_literal(d, DeformParams(k, r)) for r in r_values]
        scale = max(1.0, max(abs(v) for v in svals))
        worst = max(worst, (max(svals) - min(svals)) / scale)
        dvals = [divergence(p, q, DeformParams(k, r)).value for r in r_values]
        dvals += [divergence_literal(p, q, DeformParams(k, r)) for r in r_values]
        scale = max(1.0, max(abs(v) for v in dvals))
        worst = max(worst, (max(dvals) - min(dvals)) / scale)
    ok = worst <= 1e-12
    _emit(
        "criterion 4 (r-independence)",
        ok,
        f"entropy+divergence, canonical and literal paths, r in {r_values}, "
        f"1000 instances, worst spread = {worst:.3e} (tol 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_5_geometry_suite():
    rng = np.random.default_rng(5)
    worst_off = worst_diag = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        p = _interior(rng, n)
        params = DeformParams(float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 2.0)))
        h = fd_hessian(p, params, step=1e-4)
        off = np.abs(h[~np.eye(n, dtype=bool)])
        if off.size:
            worst_off = max(worst_off, float(off.max()))
        g = fisher_metric(p, params, "derived").g
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(h) - g) / g)))
    assert worst_off <= 1e-8
    assert worst_diag <= 1e-5

    monotone = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        p = _interior(rng, n)
        params = DeformParams(float(rng.uniform(0.05, 0.45)), 1.0)
        v = rng.normal(size=n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        errors = []
        for delta in (1e-2, 1e-3, 1e-4):
            dp = delta * v
            d = divergence(Distribution(p.p + dp), p, params).value
            errors.append(abs(2 * d / quadratic_form(p, dp, params) - 1.0))
        monotone &= errors[0] >= errors[1] - 1e-9 and errors[1] >= errors[2] - 1e-9
    assert monotone

    worst_pot = 0.0
    for _ in range(100):
        params = DeformParams(float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 2.0)))
        u = float(rng.uniform(0.2, 2.0))
        step = 2e-4 * np.sqrt(u)
        for conv in ("derived", "paper"):
            a = metric_coefficient(params, conv)
            coeffs = PotentialCoefficients(A=a, c1=0.3, c2=-0.7)
            fd = (
                hessian_potential(u + step, coeffs)
                - 2 * hessian_potential(u, coeffs)
                + hessian_potential(u - step, coeffs)
            ) / step**2
            worst_pot = max(worst_pot, abs(fd - a / u) / (a / u))
    assert worst_pot <= 1e-6
    _emit(
        "criterion 5 (geometry suite)",
        True,
        f"off-diag {worst_off:.2e} (tol 1e-8), diag rel {worst_diag:.2e} "
        f"(tol 1e-5), taylor ratio error decreasing, potential curvature "
        f"{worst_pot:.2e} (tol 1e-6)",
    )


def test_criterion_6_legacy_suite():
    rng = np.random.default_rng(6)
    grid = np.linspace(1e-3, 1.0, 1000)
    worst = np.inf
    for _ in range(20):
        k = float(rng.uniform(0.05, 1.0))
        r = float(rng.uniform(-0.9, -0.05))
        params = DeformParams(k, r, relaxed=True)
        g = -legacy_Ln(grid, params, warn_outside_region=False)
        worst = min(worst, float(g.min()))
        worst = min(worst, float((g[:-1] - g[1:]).min()))
        worst = min(worst, float((g[2:] - 2 * g[1:-1] + g[:-2]).min()))
    ok = worst >= -1e-9
    _emit(
        "criterion 6 (legacy shape suite)",
        ok,
        f"20 parameter pairs x 1000-point grid, worst witness = {worst:+.3e} "
        f"(tol -1e-9)",
    )
    assert worst >= -1e-9


def test_criterion_7_determinism():
    cfg = SweepConfig(seed=123456, trials=50)
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    ok = a == b
    _emit(
        "criterion 7 (determinism)",
        ok,
        f"two identical sweeps produced byte-identical {len(a)}-byte reports",
    )
    assert a == b
