"""Seeded property-sweep engine.

Every identity and inequality exposed by the deformed-log, entropy,
divergence, and geometry modules is registered here as a named property.
A sweep runs each selected property over randomized instances, where the
instance of trial t is derived from hash(master seed, property name, t),
so a counterexample is addressable and re-creatable by (property, trial)
alone and the aggregated report is independent of execution order.

Identities record slack = (lhs - rhs) / max(1, |lhs|, |rhs|) and pass when
|slack| <= tol (default 1e-12). Inequalities record slack = lhs - rhs and
pass when slack >= -tol (additive, default 1e-9; true slacks approach 0 at
equality cases, which are injected deterministically as trial 0 where
meaningful). A few oracle-based properties carry their own tolerance.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .deformed_log import DeformParams, legacy_Ln, legacy_u, ln_kr
from .distributions import (
    Channel,
    Distribution,
    apply_channel,
    mix,
    product,
    sample_channel,
    sample_distribution,
)
from .divergence import (
    divergence,
    divergence_literal,
    kl_divergence,
    log_sum_gap,
)
from .entropy import (
    conditional_entropy,
    entropy,
    entropy_literal,
    mutual_entropy,
    shannon_entropy,
)
from .errors import ConfigError
from .geometry import (
    PotentialCoefficients,
    fd_hessian,
    fisher_metric,
    hessian_potential,
    metric_coefficient,
    quadratic_form,
)

__all__ = [
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "SweepConfig",
    "CheckResult",
    "PropertyReport",
    "VerificationReport",
    "list_properties",
    "run_single",
    "run_suite",
]

IDENTITY_TOL = 1e-12
INEQUALITY_TOL = 1e-9

SCALAR_BATCH = 128
MAX_RECORDED_FAILURES = 10


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a verification sweep."""

    seed: int = 0
    trials: int = 100
    size_range: tuple[int, int] = (1, 16)
    k_range: tuple[float, float] = (0.05, 0.45)
    r_range: tuple[float, float] = (0.1, 2.0)
    tol: float | None = None
    properties: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        lo, hi = self.size_range
        if not (1 <= lo <= hi):
            raise ConfigError(f"invalid size_range {self.size_range}")
        klo, khi = self.k_range
        if not (0 < klo <= khi <= 0.5):
            raise ConfigError(f"k_range must lie inside (0, 0.5], got {self.k_range}")
        rlo, rhi = self.r_range
        if not (0 < rlo <= rhi):
            raise ConfigError(f"r_range must lie inside (0, inf), got {self.r_range}")
        if self.tol is not None and not self.tol > 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.properties is not None:
            object.__setattr__(self, "properties", tuple(self.properties))


@dataclass(frozen=True)
class CheckResult:
    property: str
    trial_index: int
    passed: bool
    lhs: float
    rhs: float
    slack: float
    instance_digest: str


@dataclass(frozen=True)
class PropertyReport:
    name: str
    anchor: str
    kind: str
    passes: int
    fails: int
    worst_slack: float
    failures: tuple[CheckResult, ...]


@dataclass(frozen=True)
class VerificationReport:
    config: SweepConfig
    properties: tuple[PropertyReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.fails == 0 for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "size_range": list(self.config.size_range),
                "k_range": list(self.config.k_range),
                "r_range": list(self.config.r_range),
                "tol": self.config.tol,
                "properties": [p.name for p in self.properties],
            },
            "properties": [
                {
                    "name": p.name,
                    "anchor": p.anchor,
                    "kind": p.kind,
                    "pass": p.passes,
                    "fail": p.fails,
                    "worst_slack": p.worst_slack,
                    "failures": [
                        {
                            "property": f.property,
                            "trial_index": f.trial_index,
                            "passed": f.passed,
                            "lhs": f.lhs,
                            "rhs": f.rhs,
                            "slack": f.slack,
                            "instance_digest": f.instance_digest,
                        }
                        for f in p.failures
                    ],
                }
                for p in self.properties
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class Outcome(NamedTuple):
    lhs: float
    rhs: float
    slack: float
    digest: str


@dataclass(frozen=True)
class PropertySpec:
    name: str
    anchor: str
    kind: str  # "identity" | "inequality"
    fn: Callable[[np.random.Generator, int, SweepConfig], Outcome]
    tol: float | None = None  # per-property override of the kind default


# ---------------------------------------------------------------------------
# instance generators

def _child_seed(master: int, name: str, trial: int) -> int:
    h = hashlib.blake2b(f"{master}:{name}:{trial}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _draw_params(rng, cfg: SweepConfig) -> DeformParams:
    k = float(rng.uniform(*cfg.k_range))
    r = float(rng.uniform(*cfg.r_range))
    return DeformParams(k, r)


def _draw_size(rng, cfg: SweepConfig, cap: int | None = None, floor: int = 1) -> int:
    # floor > 1 for properties that need at least two coordinates, even if
    # the configured range is narrower
    lo, hi = cfg.size_range
    if cap is not None:
        hi = min(hi, cap)
    lo = max(floor, min(lo, hi))
    hi = max(hi, lo)
    return int(rng.integers(lo, hi + 1))


def _draw_scalars(rng, count: int, lo: float = 0.05, hi: float = 20.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))


def _draw_dist(rng, n: int) -> Distribution:
    return sample_distribution(n, rng)


def _draw_interior_dist(rng, n: int) -> Distribution:
    # keep every coordinate >= 1/(2n) so finite differences stay in (0, 1)
    base = sample_distribution(n, rng)
    return Distribution(0.5 * base.p + 0.5 / n)


def _draw_joint2(rng, cfg, cap: int | None = None) -> Distribution:
    nx = _draw_size(rng, cfg, cap)
    ny = _draw_size(rng, cfg, cap)
    return sample_distribution((nx, ny), rng)


def _draw_joint3(rng, cfg, cap: int = 8) -> Distribution:
    return sample_distribution(tuple(_draw_size(rng, cfg, cap) for _ in range(3)), rng)


def _identity_outcome(lhs, rhs, digest: str) -> Outcome:
    lv, rv = np.broadcast_arrays(
        np.atleast_1d(np.asarray(lhs, dtype=float)),
        np.atleast_1d(np.asarray(rhs, dtype=float)),
    )
    scale = np.maximum(1.0, np.maximum(np.abs(lv), np.abs(rv)))
    s = (lv - rv) / scale
    i = int(np.argmax(np.abs(s)))
    return Outcome(float(lv[i]), float(rv[i]), float(s[i]), digest)


def _inequality_outcome(lhs, rhs, digest: str) -> Outcome:
    lv, rv = np.broadcast_arrays(
        np.atleast_1d(np.asarray(lhs, dtype=float)),
        np.atleast_1d(np.asarray(rhs, dtype=float)),
    )
    s = lv - rv
    i = int(np.argmin(s))
    return Outcome(float(lv[i]), float(rv[i]), float(s[i]), digest)


def _pdig(params: DeformParams) -> str:
    return f"k={params.k!r};r={params.r!r}"


# ---------------------------------------------------------------------------
# deformed-log properties


def _weighted(x, params):
    return np.power(x, params.r + params.k) * ln_kr(x, params)


def _check_product_rule_1(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = _weighted(x * y, params)
    wx, wy = _weighted(x, params), _weighted(y, params)
    rhs = wx + wy + 2.0 * params.k * wx * wy
    return _identity_outcome(lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}")


def _check_product_rule_2(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    k, r = params.k, params.r
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(x * y, params)
    rhs = np.power(x, -(r - k)) * ln_kr(y, params) + np.power(y, -(r + k)) * ln_kr(
        x, params
    )
    return _identity_outcome(lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}")


def _check_inversion(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    x = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(1.0 / x, params)
    rhs = -np.power(x, 2.0 * params.r) * ln_kr(x, params)
    return _identity_outcome(lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}")


def _check_quotient(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    k, r = params.k, params.r
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(x / y, params)
    rhs = -np.power(y, 2.0 * r) / np.power(x, r - k) * ln_kr(y, params) + np.power(
        y, r + k
    ) * ln_kr(x, params)
    return _identity_outcome(lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}")


def _check_power_rule(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    a = float(rng.uniform(0.1, min(0.5 / params.k, 4.0)))
    scaled = DeformParams(a * params.k, a * params.r)
    x = _draw_scalars(rng, SCALAR_BATCH, lo=0.2, hi=5.0)
    lhs = ln_kr(np.power(x, a), params)
    rhs = a * ln_kr(x, scaled)
    return _identity_outcome(lhs, rhs, f"a={a!r};batch={SCALAR_BATCH};{_pdig(params)}")


def _second_differences(f: np.ndarray) -> np.ndarray:
    return f[2:] - 2.0 * f[1:-1] + f[:-2]


def _check_convexity_weighted_neg(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    grid = np.linspace(1e-3, 1.0, 201)
    f = -_weighted(grid, params)
    sec = _second_differences(f)
    return _inequality_outcome(sec, 0.0, f"grid=201;{_pdig(params)}")


def _check_convexity_logsum_weight(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    hi = float(rng.uniform(1.5, 4.0))
    grid = np.linspace(1e-3, hi, 201)
    f = np.power(grid, params.r - params.k + 1.0) * ln_kr(grid, params)
    sec = _second_differences(f)
    return _inequality_outcome(sec, 0.0, f"grid=201;hi={hi!r};{_pdig(params)}")


def _check_legacy_shape(rng, trial, cfg) -> Outcome:
    k = float(rng.uniform(0.1, 1.0))
    r = float(rng.uniform(-0.9, -0.05))
    params = DeformParams(k, r, relaxed=True)
    grid = np.linspace(1e-3, 1.0, 200)
    g = -legacy_Ln(grid, params, warn_outside_region=False)
    positivity = g
    decrease = g[:-1] - g[1:]
    convexity = _second_differences(g)
    worst = np.concatenate([positivity, decrease, convexity])
    return _inequality_outcome(worst, 0.0, f"grid=200;{_pdig(params)}")


def _legacy_region_r(rng, k: float) -> float:
    bound = k if k < 0.5 else 1.0 - k
    return float(rng.uniform(-bound, bound))


def _check_legacy_product_rule(rng, trial, cfg) -> Outcome:
    k = float(rng.uniform(0.05, 0.95))
    params = DeformParams(k, _legacy_region_r(rng, k), relaxed=True)
    x = _draw_scalars(rng, SCALAR_BATCH, lo=0.05, hi=5.0)
    y = _draw_scalars(rng, SCALAR_BATCH, lo=0.05, hi=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lhs = legacy_Ln(x * y, params)
        rhs = legacy_u(x, params) * legacy_Ln(y, params) + legacy_Ln(
            x, params
        ) * legacy_u(y, params)
    return _identity_outcome(lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}")


def _check_log_sum(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg)
    a = _draw_scalars(rng, n)
    b = a.copy() if trial == 0 else _draw_scalars(rng, n)
    lhs, rhs = log_sum_gap(a, b, params)
    return Outcome(lhs, rhs, lhs - rhs, f"n={n};equal={trial == 0};{_pdig(params)}")


# ---------------------------------------------------------------------------
# entropy properties


def _check_chain_rule(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint2(rng, cfg)
    lhs = entropy(j, params).value
    rhs = (
        entropy(j.marginal(0), params).value
        + conditional_entropy(j, params, "Y_given_X").value
    )
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _product_or_random_joint(rng, trial, cfg, degenerate_axis=None):
    if trial == 0 and degenerate_axis == "x":
        p = Distribution(np.ones(1))
        q = _draw_dist(rng, _draw_size(rng, cfg))
        return product(p, q)
    if trial == 0 and degenerate_axis == "y":
        p = _draw_dist(rng, _draw_size(rng, cfg))
        q = Distribution(np.ones(1))
        return product(p, q)
    return _draw_joint2(rng, cfg)


def _check_conditional_reduces(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _product_or_random_joint(rng, trial, cfg, degenerate_axis="x")
    lhs = entropy(j.marginal(1), params).value
    rhs = conditional_entropy(j, params, "Y_given_X").value
    return Outcome(lhs, rhs, lhs - rhs, f"shape={j.shape};{_pdig(params)}")


def _check_joint_monotonicity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _product_or_random_joint(rng, trial, cfg, degenerate_axis="y")
    lhs = entropy(j, params).value
    rhs = entropy(j.marginal(0), params).value
    return Outcome(lhs, rhs, lhs - rhs, f"shape={j.shape};{_pdig(params)}")


def _check_independence_rule(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p = _draw_dist(rng, _draw_size(rng, cfg))
    q = _draw_dist(rng, _draw_size(rng, cfg))
    j = product(p, q)
    lhs = conditional_entropy(j, params, "Y_given_X").value
    sx, sy = entropy(p, params).value, entropy(q, params).value
    rhs = sy - 2.0 * params.k * sx * sy
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _check_entropy_pseudo_additivity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p = _draw_dist(rng, _draw_size(rng, cfg))
    q = _draw_dist(rng, _draw_size(rng, cfg))
    j = product(p, q)
    lhs = entropy(j, params).value
    sx, sy = entropy(p, params).value, entropy(q, params).value
    rhs = sx + sy - 2.0 * params.k * sx * sy
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _check_subadditivity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    if trial == 0:
        j = product(
            _draw_dist(rng, _draw_size(rng, cfg)), _draw_dist(rng, _draw_size(rng, cfg))
        )
    else:
        j = _draw_joint2(rng, cfg)
    lhs = (
        entropy(j.marginal(0), params).value + entropy(j.marginal(1), params).value
    )
    rhs = entropy(j, params).value
    return Outcome(lhs, rhs, lhs - rhs, f"shape={j.shape};{_pdig(params)}")


def _draw_joint3_maybe_degenerate_x(rng, trial, cfg) -> Distribution:
    if trial == 0:
        j2 = _draw_joint2(rng, cfg, cap=8)
        return Distribution(j2.p[np.newaxis])
    return _draw_joint3(rng, cfg)


def _check_conditional_comparison(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint3_maybe_degenerate_x(rng, trial, cfg)
    lhs = conditional_entropy(j, params, "Y_given_Z").value
    rhs = conditional_entropy(j, params, "Y_given_XZ").value
    return Outcome(lhs, rhs, lhs - rhs, f"shape={j.shape};{_pdig(params)}")


def _check_strong_subadditivity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint3_maybe_degenerate_x(rng, trial, cfg)
    sxz = entropy(j.marginal(0, 2), params).value
    syz = entropy(j.marginal(1, 2), params).value
    sxyz = entropy(j, params).value
    sz = entropy(j.marginal(2), params).value
    return Outcome(
        sxz + syz, sxyz + sz, sxz + syz - (sxyz + sz), f"shape={j.shape};{_pdig(params)}"
    )


def _check_corollary_3_7(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint3(rng, cfg)
    lhs = entropy(j, params).value
    rhs = (
        conditional_entropy(j, params, "XY_given_Z").value
        + entropy(j.marginal(2), params).value
    )
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _check_corollary_3_8(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint3(rng, cfg)
    lhs = conditional_entropy(j, params, "XY_given_Z").value
    rhs = (
        conditional_entropy(j, params, "X_given_Z").value
        + conditional_entropy(j, params, "Y_given_XZ").value
    )
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _check_conditional_joint_monotonicity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint3(rng, cfg)
    lhs = conditional_entropy(j, params, "XY_given_Z").value
    rhs = conditional_entropy(j, params, "X_given_Z").value
    return Outcome(lhs, rhs, lhs - rhs, f"shape={j.shape};{_pdig(params)}")


def _check_mutual_consistency(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    j = _draw_joint2(rng, cfg)
    lhs = mutual_entropy(j, params)
    rhs = (
        entropy(j.marginal(1), params).value
        - conditional_entropy(j, params, "Y_given_X").value
    )
    return _identity_outcome(lhs, rhs, f"shape={j.shape};{_pdig(params)}")


def _check_entropy_r_independence(rng, trial, cfg) -> Outcome:
    k = float(rng.uniform(*cfg.k_range))
    r1 = float(rng.uniform(*cfg.r_range))
    r2 = float(rng.uniform(*cfg.r_range))
    p = _draw_dist(rng, _draw_size(rng, cfg))
    lit1 = entropy_literal(p, DeformParams(k, r1))
    lit2 = entropy_literal(p, DeformParams(k, r2))
    return _identity_outcome(lit1, lit2, f"n={p.n};k={k!r};r1={r1!r};r2={r2!r}")


def _check_shannon_limit(rng, trial, cfg) -> Outcome:
    params = DeformParams(1e-4, 1e-4)
    p = _draw_dist(rng, _draw_size(rng, cfg))
    ref = shannon_entropy(p)
    err = abs(entropy(p, params).value - ref)
    budget = 1e-3 * (1.0 + ref)
    return Outcome(budget, err, budget - err, f"n={p.n};k=r=1e-4")


# ---------------------------------------------------------------------------
# divergence properties


def _draw_pair(rng, cfg) -> tuple[Distribution, Distribution]:
    n = _draw_size(rng, cfg)
    return _draw_dist(rng, n), _draw_dist(rng, n)


def _check_divergence_nonneg(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p, q = _draw_pair(rng, cfg)
    if trial == 0:
        q = p
    val = divergence(p, q, params).value
    return Outcome(val, 0.0, val, f"n={p.n};equal={trial == 0};{_pdig(params)}")


def _check_indiscernibles(rng, trial, cfg) -> Outcome:
    # near-coincident pairs: if D <= 1e-12 the points must agree to 1e-4
    params = _draw_params(rng, cfg)
    n = max(2, _draw_size(rng, cfg))
    p = _draw_interior_dist(rng, n)
    scale = 10.0 ** rng.uniform(-9.0, -3.0)
    noise = rng.normal(size=n)
    noise -= noise.mean()
    perturbed = (p.p + scale * noise).clip(min=1e-12)
    q = Distribution(perturbed / perturbed.sum())
    d = divergence(p, q, params).value
    maxdiff = float(np.max(np.abs(p.p - q.p)))
    if d <= 1e-12:
        slack = 1e-4 - maxdiff
    else:
        slack = 1e-4  # antecedent false: implication vacuously satisfied
    return Outcome(d, maxdiff, slack, f"n={n};scale={scale!r};{_pdig(params)}")


def _check_permutation_symmetry(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p, q = _draw_pair(rng, cfg)
    perm = rng.permutation(p.n)
    lhs = divergence(p, q, params).value
    rhs = divergence(
        Distribution(p.p[perm]), Distribution(q.p[perm]), params
    ).value
    return _identity_outcome(lhs, rhs, f"n={p.n};{_pdig(params)}")


def _check_zero_extension(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p, q = _draw_pair(rng, cfg)
    pad = int(rng.integers(1, 4))
    pe = Distribution(np.concatenate([p.p, np.zeros(pad)]))
    qe = Distribution(np.concatenate([q.p, np.zeros(pad)]))
    lhs = divergence(pe, qe, params).value
    rhs = divergence(p, q, params).value
    return _identity_outcome(lhs, rhs, f"n={p.n};pad={pad};{_pdig(params)}")


def _check_divergence_pseudo_additivity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p1, q1 = _draw_pair(rng, cfg)
    p2, q2 = _draw_pair(rng, cfg)
    lhs = divergence(product(p1, p2), product(q1, q2), params).value
    d1 = divergence(p1, q1, params).value
    d2 = divergence(p2, q2, params).value
    rhs = d1 + d2 - 2.0 * params.k * d1 * d2
    return _identity_outcome(lhs, rhs, f"n1={p1.n};n2={p2.n};{_pdig(params)}")


def _check_joint_convexity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg)
    p1, q1 = _draw_dist(rng, n), _draw_dist(rng, n)
    if trial == 0:
        p2, q2 = p1, q1
    else:
        p2, q2 = _draw_dist(rng, n), _draw_dist(rng, n)
    d1 = divergence(p1, q1, params).value
    d2 = divergence(p2, q2, params).value
    lam_grid = np.linspace(0.0, 1.0, 11)
    lhs, rhs = [], []
    for lam in lam_grid:
        dm = divergence(mix(p1, p2, lam), mix(q1, q2, lam), params).value
        lhs.append((1.0 - lam) * d1 + lam * d2)
        rhs.append(dm)
    return _inequality_outcome(lhs, rhs, f"n={n};equal={trial == 0};{_pdig(params)}")


def _partition_channel(rng, m: int, n: int) -> Channel:
    groups = np.concatenate(
        [rng.permutation(m), rng.integers(0, m, size=max(0, n - m))]
    )[:n]
    w = np.zeros((m, n))
    w[groups, np.arange(n)] = 1.0
    return Channel(w)


def _check_information_monotonicity(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p, q = _draw_pair(rng, cfg)
    n = p.n
    if trial == 0:
        w = Channel(np.eye(n))
        kind = "identity"
    elif trial % 2 == 0:
        m = int(rng.integers(1, n + 3))
        w = sample_channel(m, n, rng)
        kind = "random"
    else:
        m = int(rng.integers(1, n + 1))
        w = _partition_channel(rng, m, n)
        kind = "partition"
    lhs = divergence(p, q, params).value
    rhs = divergence(apply_channel(w, p), apply_channel(w, q), params).value
    return Outcome(
        lhs, rhs, lhs - rhs, f"n={n};channel={kind};m={w.shape[0]};{_pdig(params)}"
    )


def _check_divergence_r_independence(rng, trial, cfg) -> Outcome:
    k = float(rng.uniform(*cfg.k_range))
    r1 = float(rng.uniform(*cfg.r_range))
    r2 = float(rng.uniform(*cfg.r_range))
    p, q = _draw_pair(rng, cfg)
    lit1 = divergence_literal(p, q, DeformParams(k, r1))
    lit2 = divergence_literal(p, q, DeformParams(k, r2))
    return _identity_outcome(lit1, lit2, f"n={p.n};k={k!r};r1={r1!r};r2={r2!r}")


def _check_definitional_equivalence(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    p, q = _draw_pair(rng, cfg)
    lhs = divergence_literal(p, q, params, form="pq")
    rhs = divergence_literal(p, q, params, form="qp")
    return _identity_outcome(lhs, rhs, f"n={p.n};{_pdig(params)}")


def _check_kl_limit(rng, trial, cfg) -> Outcome:
    params = DeformParams(1e-4, 1e-4)
    p, q = _draw_pair(rng, cfg)
    ref = kl_divergence(p, q)
    err = abs(divergence(p, q, params).value - ref)
    budget = 1e-3 * (1.0 + ref)
    return Outcome(budget, err, budget - err, f"n={p.n};k=r=1e-4")


# ---------------------------------------------------------------------------
# geometry properties


def _check_hessian_separability(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg, cap=6, floor=2)
    p = _draw_interior_dist(rng, n)
    h = fd_hessian(p, params, step=1e-4)
    off = h[~np.eye(n, dtype=bool)]
    i = int(np.argmax(np.abs(off)))
    return Outcome(float(off[i]), 0.0, float(off[i]), f"n={n};step=1e-4;{_pdig(params)}")


def _check_metric_oracle_agreement(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg, cap=6, floor=2)
    p = _draw_interior_dist(rng, n)
    fd = np.diag(fd_hessian(p, params, step=1e-4))
    g = fisher_metric(p, params, "derived").g
    rel = (fd - g) / g
    i = int(np.argmax(np.abs(rel)))
    return Outcome(float(fd[i]), float(g[i]), float(rel[i]), f"n={n};{_pdig(params)}")


def _check_metric_hessian_structure(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg, floor=2)
    p = _draw_interior_dist(rng, n)
    lhs, rhs = [], []
    for conv in ("derived", "paper"):
        g = fisher_metric(p, params, conv).g
        a = metric_coefficient(params, conv)
        lhs.extend(g.tolist())
        rhs.extend((a / p.p).tolist())
    return _identity_outcome(lhs, rhs, f"n={n};{_pdig(params)}")


def _check_potential_curvature(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    u = float(rng.uniform(0.2, 2.0))
    c1 = float(rng.uniform(-1.0, 1.0))
    c2 = float(rng.uniform(-1.0, 1.0))
    # step balances truncation (h^2 / u^2) against roundoff (eps / h^2)
    h = 2e-4 * np.sqrt(u)
    lhs, rhs = [], []
    for conv in ("derived", "paper"):
        a = metric_coefficient(params, conv)
        coeffs = PotentialCoefficients(A=a, c1=c1, c2=c2)
        fd = (
            hessian_potential(u + h, coeffs)
            - 2.0 * hessian_potential(u, coeffs)
            + hessian_potential(u - h, coeffs)
        ) / (h * h)
        lhs.append(fd / (a / u))
        rhs.append(1.0)
    return _identity_outcome(lhs, rhs, f"u={u!r};c1={c1!r};c2={c2!r};{_pdig(params)}")


def _check_metric_positive_definite(rng, trial, cfg) -> Outcome:
    params = _draw_params(rng, cfg)
    n = _draw_size(rng, cfg, floor=2)
    p = Distribution(np.full(n, 1.0 / n)) if trial == 0 else _draw_interior_dist(rng, n)
    g = fisher_metric(p, params, "derived").g
    return _inequality_outcome(g, 0.0, f"n={n};{_pdig(params)}")


def _check_taylor_expansion(rng, trial, cfg) -> Outcome:
    # Per coordinate f(a) = (a - a^{1-2k} p^{2k}) / (2k) has f(p) = 0, f' = 1,
    # f'' = (1-2k)/p, f^(3) = -(1-4k^2)/p^2, f^(4) = 2(1-4k^2)(1+k)/p^3 and
    # |f^(5)| <= (1-4k^2)(2k+2)(2k+3) min(p,a)^{-2k-4} p^{2k} between p and a.
    # So what D(a||p) leaves after its cubic expansion must match the quartic
    # term to within the fifth-order Lagrange bound: slack = 1 - error/bound.
    params = _draw_params(rng, cfg)
    k = params.k
    n = _draw_size(rng, cfg, floor=2)
    p = _draw_interior_dist(rng, n)
    v = rng.normal(size=n)
    v -= v.mean()
    a = p.p + v * (1e-2 / float(np.linalg.norm(v)))
    dp = a - p.p
    c = 1.0 - 4.0 * k * k
    rest = (
        divergence(Distribution(a), p, params).value
        - float(np.sum(dp))
        - 0.5 * quadratic_form(p, dp, params)
        + c / 6.0 * float(np.sum(dp**3 / p.p**2))
    )
    quartic = c * (1.0 + k) / 12.0 * float(np.sum(dp**4 / p.p**3))
    bound = c * (2.0 * k + 2.0) * (2.0 * k + 3.0) / 120.0 * float(
        np.sum(np.abs(dp) ** 5 * np.minimum(p.p, a) ** (-2.0 * k - 4.0) * p.p ** (2.0 * k))
    )
    err = abs(rest - quartic)
    return Outcome(bound, err, 1.0 - err / bound, f"n={n};delta=1e-2;{_pdig(params)}")


# ---------------------------------------------------------------------------
# registry

_SPECS = [
    # deformed_log
    PropertySpec("product_rule_1", "Lemma 2.4", "identity", _check_product_rule_1),
    PropertySpec("product_rule_2", "Lemma 2.5", "identity", _check_product_rule_2),
    PropertySpec("inversion", "Corollary 2.6", "identity", _check_inversion),
    PropertySpec("quotient", "Corollary (quotient rule)", "identity", _check_quotient),
    PropertySpec("power_rule", "Lemma (power rule)", "identity", _check_power_rule),
    PropertySpec(
        "convexity_weighted_neg", "Lemma 2.7", "inequality", _check_convexity_weighted_neg
    ),
    PropertySpec(
        "convexity_logsum_weight",
        "Lemma 2.8",
        "inequality",
        _check_convexity_logsum_weight,
    ),
    PropertySpec("legacy_shape", "Theorem 2.1", "inequality", _check_legacy_shape),
    PropertySpec(
        "legacy_product_rule", "Eq. (10)", "identity", _check_legacy_product_rule
    ),
    PropertySpec("log_sum_inequality", "Theorem 2.9", "inequality", _check_log_sum),
    # entropy
    PropertySpec("chain_rule", "Theorem 3.6", "identity", _check_chain_rule),
    PropertySpec(
        "conditional_reduces_entropy", "Lemma 3.5", "inequality", _check_conditional_reduces
    ),
    PropertySpec(
        "joint_monotonicity",
        "Theorem 3.6 (consequence)",
        "inequality",
        _check_joint_monotonicity,
    ),
    PropertySpec("independence_rule", "Lemma 3.4", "identity", _check_independence_rule),
    PropertySpec(
        "entropy_pseudo_additivity",
        "Eq. (29)",
        "identity",
        _check_entropy_pseudo_additivity,
    ),
    PropertySpec("subadditivity", "Theorem 3.9", "inequality", _check_subadditivity),
    PropertySpec(
        "conditional_comparison", "Lemma 3.10", "inequality", _check_conditional_comparison
    ),
    PropertySpec(
        "strong_subadditivity", "Theorem 3.11", "inequality", _check_strong_subadditivity
    ),
    PropertySpec("corollary_3_7", "Corollary 3.7", "identity", _check_corollary_3_7),
    PropertySpec("corollary_3_8", "Corollary 3.8", "identity", _check_corollary_3_8),
    PropertySpec(
        "conditional_joint_monotonicity",
        "Corollary 3.8 (consequence)",
        "inequality",
        _check_conditional_joint_monotonicity,
    ),
    PropertySpec(
        "mutual_entropy_consistency",
        "Theorem 3.6 (mutual form)",
        "identity",
        _check_mutual_consistency,
    ),
    PropertySpec(
        "entropy_r_independence",
        "observed r-cancellation",
        "identity",
        _check_entropy_r_independence,
    ),
    PropertySpec("shannon_limit", "Shannon limit", "inequality", _check_shannon_limit),
    # divergence
    PropertySpec(
        "divergence_nonnegativity", "Lemma 4.2", "inequality", _check_divergence_nonneg
    ),
    PropertySpec(
        "identity_of_indiscernibles",
        "Lemma 4.2 (equality case)",
        "inequality",
        _check_indiscernibles,
    ),
    PropertySpec(
        "permutation_symmetry", "Lemma 4.3", "identity", _check_permutation_symmetry
    ),
    PropertySpec("zero_extension", "Lemma 4.4", "identity", _check_zero_extension),
    PropertySpec(
        "divergence_pseudo_additivity",
        "Theorem 4.5",
        "identity",
        _check_divergence_pseudo_additivity,
    ),
    PropertySpec("joint_convexity", "Theorem 4.6", "inequality", _check_joint_convexity),
    PropertySpec(
        "information_monotonicity",
        "Theorem 4.7",
        "inequality",
        _check_information_monotonicity,
    ),
    PropertySpec(
        "divergence_r_independence",
        "observed r-cancellation",
        "identity",
        _check_divergence_r_independence,
    ),
    PropertySpec(
        "definitional_equivalence",
        "Definition 4.1",
        "identity",
        _check_definitional_equivalence,
    ),
    PropertySpec("kl_limit", "KL limit", "inequality", _check_kl_limit),
    # geometry
    PropertySpec(
        "hessian_separability",
        "induced metric (off-diagonal vanishing)",
        "identity",
        _check_hessian_separability,
        tol=1e-8,
    ),
    PropertySpec(
        "metric_oracle_agreement",
        "induced metric (diagonal oracle)",
        "identity",
        _check_metric_oracle_agreement,
        tol=1e-5,
    ),
    PropertySpec(
        "metric_hessian_structure",
        "Theorem 5.1",
        "identity",
        _check_metric_hessian_structure,
    ),
    PropertySpec(
        "potential_curvature",
        "Theorem 5.1",
        "identity",
        _check_potential_curvature,
        tol=1e-6,
    ),
    PropertySpec(
        "metric_positive_definite",
        "induced metric (positive definiteness)",
        "inequality",
        _check_metric_positive_definite,
    ),
    PropertySpec(
        "taylor_expansion",
        "induced metric (quadratic expansion)",
        "inequality",
        _check_taylor_expansion,
    ),
]

_REGISTRY: dict[str, PropertySpec] = {s.name: s for s in _SPECS}


def list_properties() -> list[tuple[str, str, str]]:
    """All registered properties as (name, anchor, kind) in run order."""
    return [(s.name, s.anchor, s.kind) for s in _SPECS]


def _effective_tol(spec: PropertySpec, config: SweepConfig) -> float:
    if config.tol is not None:
        return config.tol
    if spec.tol is not None:
        return spec.tol
    return IDENTITY_TOL if spec.kind == "identity" else INEQUALITY_TOL


def run_single(config: SweepConfig, name: str, trial: int) -> CheckResult:
    """Run one (property, trial) pair; fully determined by the config seed."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(f"unknown property {name!r}")
    seed = _child_seed(config.seed, name, trial)
    rng = np.random.default_rng(seed)
    out = spec.fn(rng, trial, config)
    tol = _effective_tol(spec, config)
    if spec.kind == "identity":
        passed = abs(out.slack) <= tol
    else:
        passed = out.slack >= -tol
    return CheckResult(
        property=name,
        trial_index=trial,
        passed=passed,
        lhs=out.lhs,
        rhs=out.rhs,
        slack=out.slack,
        instance_digest=f"seed={seed};{out.digest}",
    )


def _aggregate(spec: PropertySpec, results: list[CheckResult]) -> PropertyReport:
    passes = sum(1 for r in results if r.passed)
    failures = sorted(
        (r for r in results if not r.passed), key=lambda r: r.trial_index
    )
    if spec.kind == "identity":
        worst = max(results, key=lambda r: abs(r.slack)).slack
    else:
        worst = min(results, key=lambda r: r.slack).slack
    return PropertyReport(
        name=spec.name,
        anchor=spec.anchor,
        kind=spec.kind,
        passes=passes,
        fails=len(results) - passes,
        worst_slack=worst,
        failures=tuple(failures[:MAX_RECORDED_FAILURES]),
    )


def run_suite(config: SweepConfig) -> VerificationReport:
    """Run every selected property over `trials` seeded instances."""
    if config.properties is None:
        selected = [s.name for s in _SPECS]
    else:
        unknown = [n for n in config.properties if n not in _REGISTRY]
        if unknown:
            raise ConfigError(f"unknown properties: {', '.join(unknown)}")
        selected = [s.name for s in _SPECS if s.name in set(config.properties)]
    reports = []
    for name in selected:
        results = [run_single(config, name, t) for t in range(config.trials)]
        reports.append(_aggregate(_REGISTRY[name], results))
    return VerificationReport(config=config, properties=tuple(reports))
