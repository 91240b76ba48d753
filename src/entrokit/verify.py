"""Seeded property-sweep engine.

Every identity and inequality exposed by the deformed-log, entropy,
divergence, and geometry modules is registered here as a named property.
A sweep runs each selected property over randomized instances, where the
instance of trial t is derived from hash(master seed, property name, t),
so a counterexample is addressable and re-creatable by (property, trial)
alone and the aggregated report is independent of execution order. Each
property is one check `fn(rng, trial) -> (lhs, rhs, digest)` registered, in
run order, by the `@_property(name, anchor, kind, tol=None)` decorator; the
linear entropy laws of Section 3 are one-line `_entropy_law` entries.

The kind supplies the slack rule and picks the worst element of array
sides. Identities record slack = (lhs - rhs) / max(1, |lhs|, |rhs|) and
pass when |slack| <= tol (default 1e-12). Inequalities record slack =
lhs - rhs and pass when slack >= -tol (additive, default 1e-9; true slacks
approach 0 at equality cases, which are injected deterministically as
trial 0 where meaningful). A few oracle-based checks return an `Outcome`
with a slack of their own, and may carry their own tolerance.
"""

from __future__ import annotations

import hashlib
import functools
import json
import operator
import re
from dataclasses import asdict, dataclass
from numbers import Real
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
    AXIS_LETTERS,
    conditional_entropy,
    entropy,
    entropy_literal,
    mutual_entropy,
    shannon_entropy,
)
from .errors import ConfigError
from .geometry import (
    CONVENTIONS,
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

# Every sweep instance draws its support sizes, k and r from these ranges.
SIZE_RANGE = (1, 16)
K_RANGE = (0.05, 0.45)
R_RANGE = (0.1, 2.0)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a verification sweep."""

    seed: int = 0
    trials: int = 100
    tol: float | None = None
    properties: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.tol is not None and not (isinstance(self.tol, Real) and self.tol > 0):
            raise ConfigError(f"tol must be a real number > 0, got {self.tol!r}")
        if self.properties is not None:
            names = self.properties
            if isinstance(names, str) or not np.iterable(names):
                raise ConfigError(f"properties must be an iterable of names: {names!r}")
            names = tuple(names)
            if not all(isinstance(n, str) for n in names):
                raise ConfigError(f"property names must be strings: {names!r}")
            object.__setattr__(self, "properties", names)


def _integer(field: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}") from None


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
                "size_range": list(SIZE_RANGE),
                "k_range": list(K_RANGE),
                "r_range": list(R_RANGE),
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
                    "failures": [asdict(f) for f in p.failures],
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


class _Kind(NamedTuple):
    tol: float  # default tolerance
    slack: Callable  # elementwise (lhs, rhs) -> slack
    shortfall: Callable  # slack -> how far it falls short; fails above tol


_KINDS = {
    "identity": _Kind(
        IDENTITY_TOL,
        lambda lv, rv: (lv - rv) / np.maximum(1.0, np.maximum(abs(lv), abs(rv))),
        abs,
    ),
    "inequality": _Kind(INEQUALITY_TOL, operator.sub, operator.neg),
}


@dataclass(frozen=True)
class PropertySpec:
    name: str
    anchor: str
    kind: str  # "identity" | "inequality"
    fn: Callable[[np.random.Generator, int], tuple]  # -> (lhs, rhs, digest) | Outcome
    tol: float  # the property's own tolerance, else its kind's


# Filled in definition order by @_property; that order is the run order.
_SPECS: list[PropertySpec] = []


def _property(name: str, anchor: str, kind: str, tol: float | None = None):
    """Register the decorated check `fn(rng, trial)` as a property."""

    def register(fn):
        _SPECS.append(PropertySpec(name, anchor, kind, fn, tol or _KINDS[kind].tol))
        return fn

    return register


def _outcome(kind: str, lhs, rhs, digest: str) -> Outcome:
    """The worst element of `lhs` against `rhs` under the kind's slack rule."""
    rule = _KINDS[kind]
    lv, rv = np.broadcast_arrays(
        np.atleast_1d(np.asarray(lhs, dtype=float)),
        np.atleast_1d(np.asarray(rhs, dtype=float)),
    )
    s = rule.slack(lv, rv)
    i = int(np.argmax(rule.shortfall(s)))
    return Outcome(float(lv[i]), float(rv[i]), float(s[i]), digest)


# ---------------------------------------------------------------------------
# instance generators

def _child_seed(master: int, name: str, trial: int) -> int:
    h = hashlib.blake2b(f"{master}:{name}:{trial}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _draw_params(rng) -> DeformParams:
    k = float(rng.uniform(*K_RANGE))
    r = float(rng.uniform(*R_RANGE))
    return DeformParams(k, r)


def _draw_size(rng, cap: int = SIZE_RANGE[1], floor: int = SIZE_RANGE[0]) -> int:
    # floor = 2 for properties that need at least two coordinates
    return int(rng.integers(floor, cap + 1))


def _draw_scalars(rng, count: int, lo: float = 0.05, hi: float = 20.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))


def _draw_dist(rng) -> Distribution:
    return sample_distribution(_draw_size(rng), rng)


def _draw_interior_dist(rng, n: int) -> Distribution:
    # keep every coordinate >= 1/(2n) so finite differences stay in (0, 1)
    base = sample_distribution(n, rng)
    return Distribution(0.5 * base.p + 0.5 / n)


def _draw_joint2(rng, cap: int = SIZE_RANGE[1]) -> Distribution:
    return sample_distribution((_draw_size(rng, cap), _draw_size(rng, cap)), rng)


def _draw_joint3(rng, cap: int = 8) -> Distribution:
    return sample_distribution(tuple(_draw_size(rng, cap) for _ in range(3)), rng)


def _pdig(params: DeformParams) -> str:
    return f"k={params.k!r};r={params.r!r}"


# ---------------------------------------------------------------------------
# deformed-log properties


def _weighted(x, params):
    return np.power(x, params.r + params.k) * ln_kr(x, params)


@_property("product_rule_1", "Lemma 2.4", "identity")
def _check_product_rule_1(rng, trial):
    params = _draw_params(rng)
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = _weighted(x * y, params)
    wx, wy = _weighted(x, params), _weighted(y, params)
    rhs = wx + wy + 2.0 * params.k * wx * wy
    return lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}"


@_property("product_rule_2", "Lemma 2.5", "identity")
def _check_product_rule_2(rng, trial):
    params = _draw_params(rng)
    k, r = params.k, params.r
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(x * y, params)
    rhs = (np.power(x, -(r - k)) * ln_kr(y, params)
           + np.power(y, -(r + k)) * ln_kr(x, params))
    return lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}"


@_property("inversion", "Corollary 2.6", "identity")
def _check_inversion(rng, trial):
    params = _draw_params(rng)
    x = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(1.0 / x, params)
    rhs = -np.power(x, 2.0 * params.r) * ln_kr(x, params)
    return lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}"


@_property("quotient", "Corollary (quotient rule)", "identity")
def _check_quotient(rng, trial):
    params = _draw_params(rng)
    k, r = params.k, params.r
    x = _draw_scalars(rng, SCALAR_BATCH)
    y = _draw_scalars(rng, SCALAR_BATCH)
    lhs = ln_kr(x / y, params)
    rhs = (-np.power(y, 2.0 * r) / np.power(x, r - k) * ln_kr(y, params)
           + np.power(y, r + k) * ln_kr(x, params))
    return lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}"


@_property("power_rule", "Lemma (power rule)", "identity")
def _check_power_rule(rng, trial):
    params = _draw_params(rng)
    a = float(rng.uniform(0.1, min(0.5 / params.k, 4.0)))
    scaled = DeformParams(a * params.k, a * params.r)
    x = _draw_scalars(rng, SCALAR_BATCH, lo=0.2, hi=5.0)
    lhs = ln_kr(np.power(x, a), params)
    rhs = a * ln_kr(x, scaled)
    return lhs, rhs, f"a={a!r};batch={SCALAR_BATCH};{_pdig(params)}"


def _second_differences(f: np.ndarray) -> np.ndarray:
    return f[2:] - 2.0 * f[1:-1] + f[:-2]


@_property("convexity_weighted_neg", "Lemma 2.7", "inequality")
def _check_convexity_weighted_neg(rng, trial):
    params = _draw_params(rng)
    grid = np.linspace(1e-3, 1.0, 201)
    f = -_weighted(grid, params)
    return _second_differences(f), 0.0, f"grid=201;{_pdig(params)}"


@_property("convexity_logsum_weight", "Lemma 2.8", "inequality")
def _check_convexity_logsum_weight(rng, trial):
    params = _draw_params(rng)
    hi = float(rng.uniform(1.5, 4.0))
    grid = np.linspace(1e-3, hi, 201)
    f = np.power(grid, params.r - params.k + 1.0) * ln_kr(grid, params)
    return _second_differences(f), 0.0, f"grid=201;hi={hi!r};{_pdig(params)}"


@_property("legacy_shape", "Theorem 2.1", "inequality")
def _check_legacy_shape(rng, trial):
    k = float(rng.uniform(0.1, 1.0))
    r = float(rng.uniform(-0.9, -0.05))
    params = DeformParams(k, r, relaxed=True)
    grid = np.linspace(1e-3, 1.0, 200)
    g = -legacy_Ln(grid, params, warn_outside_region=False)
    # -Ln is positive, decreasing and convex
    shape = np.concatenate([g, g[:-1] - g[1:], _second_differences(g)])
    return shape, 0.0, f"grid=200;{_pdig(params)}"


def _legacy_region_r(rng, k: float) -> float:
    bound = k if k < 0.5 else 1.0 - k
    return float(rng.uniform(-bound, bound))


@_property("legacy_product_rule", "Eq. (10)", "identity")
def _check_legacy_product_rule(rng, trial):
    k = float(rng.uniform(0.05, 0.95))
    params = DeformParams(k, _legacy_region_r(rng, k), relaxed=True)
    x = _draw_scalars(rng, SCALAR_BATCH, lo=0.05, hi=5.0)
    y = _draw_scalars(rng, SCALAR_BATCH, lo=0.05, hi=5.0)
    lhs = legacy_Ln(x * y, params)
    rhs = (legacy_u(x, params) * legacy_Ln(y, params)
           + legacy_Ln(x, params) * legacy_u(y, params))
    return lhs, rhs, f"batch={SCALAR_BATCH};{_pdig(params)}"


@_property("log_sum_inequality", "Theorem 2.9", "inequality")
def _check_log_sum(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng)
    a = _draw_scalars(rng, n)
    b = a.copy() if trial == 0 else _draw_scalars(rng, n)
    lhs, rhs = log_sum_gap(a, b, params)
    return lhs, rhs, f"n={n};equal={trial == 0};{_pdig(params)}"


# ---------------------------------------------------------------------------
# entropy properties


def _law_side(side: str):
    """A sum of terms over the axis letters XYZ as a function of (joint,
    params): "A" is S(A), the joint's own entropy when A names every axis,
    and "A|B" is S(A|B). The terms are added left to right."""

    def term(text: str):
        of, _, given = text.partition("|")
        if given:
            spec = f"{of}_given_{given}"
            return lambda j, params: conditional_entropy(j, params, spec).value
        axes = tuple(AXIS_LETTERS.index(a) for a in of)
        return lambda j, params: entropy(
            j if len(axes) == j.ndim else j.marginal(*axes), params
        ).value

    terms = [term(t) for t in side.split(" + ")]
    return lambda j, params: functools.reduce(
        operator.add, [t(j, params) for t in terms]
    )


def _entropy_law(name: str, anchor: str, draw, law: str, trial0=None) -> None:
    """Register `law`, "lhs = rhs" (an identity) or "lhs >= rhs" (an
    inequality) between sides read by `_law_side`, over the joint `draw(rng)`,
    or at trial 0 the equality case `trial0(rng)` when one is given."""
    lhs, relation, rhs = re.split(" (>?=) ", law)
    left, right = _law_side(lhs), _law_side(rhs)

    @_property(name, anchor, "inequality" if relation == ">=" else "identity")
    def check(rng, trial):
        params = _draw_params(rng)
        j = (trial0 if trial == 0 and trial0 else draw)(rng)
        return left(j, params), right(j, params), f"shape={j.shape};{_pdig(params)}"


# Equality cases, drawn at trial 0 in place of a random joint.
def _x_point(rng) -> Distribution:
    return product(Distribution(np.ones(1)), _draw_dist(rng))


def _y_point(rng) -> Distribution:
    return product(_draw_dist(rng), Distribution(np.ones(1)))


def _independent(rng) -> Distribution:
    return product(_draw_dist(rng), _draw_dist(rng))


def _x_point3(rng) -> Distribution:
    return Distribution(_draw_joint2(rng, cap=8).p[np.newaxis])


_entropy_law("chain_rule", "Theorem 3.6", _draw_joint2, "XY = X + Y|X")
_entropy_law(
    "conditional_reduces_entropy", "Lemma 3.5", _draw_joint2, "Y >= Y|X", _x_point
)
_entropy_law(
    "joint_monotonicity", "Theorem 3.6 (consequence)", _draw_joint2, "XY >= X", _y_point
)


@_property("independence_rule", "Lemma 3.4", "identity")
def _check_independence_rule(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_dist(rng), _draw_dist(rng)
    j = product(p, q)
    lhs = conditional_entropy(j, params, "Y_given_X").value
    sx, sy = entropy(p, params).value, entropy(q, params).value
    rhs = sy - 2.0 * params.k * sx * sy
    return lhs, rhs, f"shape={j.shape};{_pdig(params)}"


@_property("entropy_pseudo_additivity", "Eq. (29)", "identity")
def _check_entropy_pseudo_additivity(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_dist(rng), _draw_dist(rng)
    j = product(p, q)
    lhs = entropy(j, params).value
    sx, sy = entropy(p, params).value, entropy(q, params).value
    rhs = sx + sy - 2.0 * params.k * sx * sy
    return lhs, rhs, f"shape={j.shape};{_pdig(params)}"


_entropy_law("subadditivity", "Theorem 3.9", _draw_joint2, "X + Y >= XY", _independent)
_entropy_law(
    "conditional_comparison", "Lemma 3.10", _draw_joint3, "Y|Z >= Y|XZ", _x_point3
)
_entropy_law(
    "strong_subadditivity", "Theorem 3.11",
    _draw_joint3, "XZ + YZ >= XYZ + Z", _x_point3,
)
_entropy_law("corollary_3_7", "Corollary 3.7", _draw_joint3, "XYZ = XY|Z + Z")
_entropy_law("corollary_3_8", "Corollary 3.8", _draw_joint3, "XY|Z = X|Z + Y|XZ")
_entropy_law(
    "conditional_joint_monotonicity", "Corollary 3.8 (consequence)",
    _draw_joint3, "XY|Z >= X|Z",
)


@_property("mutual_entropy_consistency", "Theorem 3.6 (mutual form)", "identity")
def _check_mutual_consistency(rng, trial):
    params = _draw_params(rng)
    j = _draw_joint2(rng)
    lhs = mutual_entropy(j, params)
    rhs = (
        entropy(j.marginal(1), params).value
        - conditional_entropy(j, params, "Y_given_X").value
    )
    return lhs, rhs, f"shape={j.shape};{_pdig(params)}"


@_property("entropy_r_independence", "observed r-cancellation", "identity")
def _check_entropy_r_independence(rng, trial):
    k = float(rng.uniform(*K_RANGE))
    r1 = float(rng.uniform(*R_RANGE))
    r2 = float(rng.uniform(*R_RANGE))
    p = _draw_dist(rng)
    lit1 = entropy_literal(p, DeformParams(k, r1))
    lit2 = entropy_literal(p, DeformParams(k, r2))
    return lit1, lit2, f"n={p.n};k={k!r};r1={r1!r};r2={r2!r}"


@_property("shannon_limit", "Shannon limit", "inequality")
def _check_shannon_limit(rng, trial):
    params = DeformParams(1e-4, 1e-4)
    p = _draw_dist(rng)
    ref = shannon_entropy(p)
    err = abs(entropy(p, params).value - ref)
    budget = 1e-3 * (1.0 + ref)
    return budget, err, f"n={p.n};k=r=1e-4"


# ---------------------------------------------------------------------------
# divergence properties


def _draw_pair(rng) -> tuple[Distribution, Distribution]:
    n = _draw_size(rng)
    return sample_distribution(n, rng), sample_distribution(n, rng)


@_property("divergence_nonnegativity", "Lemma 4.2", "inequality")
def _check_divergence_nonneg(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_pair(rng)
    if trial == 0:
        q = p
    val = divergence(p, q, params).value
    return val, 0.0, f"n={p.n};equal={trial == 0};{_pdig(params)}"


@_property("identity_of_indiscernibles", "Lemma 4.2 (equality case)", "inequality")
def _check_indiscernibles(rng, trial):
    # near-coincident pairs: if D <= 1e-12 the points must agree to 1e-4
    params = _draw_params(rng)
    n = max(2, _draw_size(rng))
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


@_property("permutation_symmetry", "Lemma 4.3", "identity")
def _check_permutation_symmetry(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_pair(rng)
    perm = rng.permutation(p.n)
    lhs = divergence(p, q, params).value
    rhs = divergence(
        Distribution(p.p[perm]), Distribution(q.p[perm]), params
    ).value
    return lhs, rhs, f"n={p.n};{_pdig(params)}"


@_property("zero_extension", "Lemma 4.4", "identity")
def _check_zero_extension(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_pair(rng)
    pad = int(rng.integers(1, 4))
    pe = Distribution(np.concatenate([p.p, np.zeros(pad)]))
    qe = Distribution(np.concatenate([q.p, np.zeros(pad)]))
    lhs = divergence(pe, qe, params).value
    rhs = divergence(p, q, params).value
    return lhs, rhs, f"n={p.n};pad={pad};{_pdig(params)}"


@_property("divergence_pseudo_additivity", "Theorem 4.5", "identity")
def _check_divergence_pseudo_additivity(rng, trial):
    params = _draw_params(rng)
    p1, q1 = _draw_pair(rng)
    p2, q2 = _draw_pair(rng)
    lhs = divergence(product(p1, p2), product(q1, q2), params).value
    d1 = divergence(p1, q1, params).value
    d2 = divergence(p2, q2, params).value
    rhs = d1 + d2 - 2.0 * params.k * d1 * d2
    return lhs, rhs, f"n1={p1.n};n2={p2.n};{_pdig(params)}"


@_property("joint_convexity", "Theorem 4.6", "inequality")
def _check_joint_convexity(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng)
    p1, q1 = sample_distribution(n, rng), sample_distribution(n, rng)
    if trial == 0:
        p2, q2 = p1, q1
    else:
        p2, q2 = sample_distribution(n, rng), sample_distribution(n, rng)
    d1 = divergence(p1, q1, params).value
    d2 = divergence(p2, q2, params).value
    lam = np.linspace(0.0, 1.0, 11)
    rhs = [divergence(mix(p1, p2, t), mix(q1, q2, t), params).value for t in lam]
    return (1.0 - lam) * d1 + lam * d2, rhs, f"n={n};equal={trial == 0};{_pdig(params)}"


def _partition_channel(rng, m: int, n: int) -> Channel:
    groups = np.concatenate(
        [rng.permutation(m), rng.integers(0, m, size=max(0, n - m))]
    )[:n]
    w = np.zeros((m, n))
    w[groups, np.arange(n)] = 1.0
    return Channel(w)


@_property("information_monotonicity", "Theorem 4.7", "inequality")
def _check_information_monotonicity(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_pair(rng)
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
    return lhs, rhs, f"n={n};channel={kind};m={w.shape[0]};{_pdig(params)}"


@_property("divergence_r_independence", "observed r-cancellation", "identity")
def _check_divergence_r_independence(rng, trial):
    k = float(rng.uniform(*K_RANGE))
    r1 = float(rng.uniform(*R_RANGE))
    r2 = float(rng.uniform(*R_RANGE))
    p, q = _draw_pair(rng)
    lit1 = divergence_literal(p, q, DeformParams(k, r1))
    lit2 = divergence_literal(p, q, DeformParams(k, r2))
    return lit1, lit2, f"n={p.n};k={k!r};r1={r1!r};r2={r2!r}"


@_property("definitional_equivalence", "Definition 4.1", "identity")
def _check_definitional_equivalence(rng, trial):
    params = _draw_params(rng)
    p, q = _draw_pair(rng)
    lhs = divergence_literal(p, q, params, form="pq")
    rhs = divergence_literal(p, q, params, form="qp")
    return lhs, rhs, f"n={p.n};{_pdig(params)}"


@_property("kl_limit", "KL limit", "inequality")
def _check_kl_limit(rng, trial):
    params = DeformParams(1e-4, 1e-4)
    p, q = _draw_pair(rng)
    ref = kl_divergence(p, q)
    err = abs(divergence(p, q, params).value - ref)
    budget = 1e-3 * (1.0 + ref)
    return budget, err, f"n={p.n};k=r=1e-4"


# ---------------------------------------------------------------------------
# geometry properties


@_property(
    "hessian_separability", "induced metric (off-diagonal vanishing)", "identity",
    tol=1e-8,
)
def _check_hessian_separability(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng, cap=6, floor=2)
    p = _draw_interior_dist(rng, n)
    h = fd_hessian(p, params, step=1e-4)
    return h[~np.eye(n, dtype=bool)], 0.0, f"n={n};step=1e-4;{_pdig(params)}"


@_property(
    "metric_oracle_agreement", "induced metric (diagonal oracle)", "identity", tol=1e-5
)
def _check_metric_oracle_agreement(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng, cap=6, floor=2)
    p = _draw_interior_dist(rng, n)
    fd = np.diag(fd_hessian(p, params, step=1e-4))
    g = fisher_metric(p, params, "derived").g
    rel = (fd - g) / g
    i = int(np.argmax(np.abs(rel)))
    return Outcome(float(fd[i]), float(g[i]), float(rel[i]), f"n={n};{_pdig(params)}")


@_property("metric_hessian_structure", "Theorem 5.1", "identity")
def _check_metric_hessian_structure(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng, floor=2)
    p = _draw_interior_dist(rng, n)
    lhs = np.concatenate([fisher_metric(p, params, c).g for c in CONVENTIONS])
    rhs = np.concatenate([metric_coefficient(params, c) / p.p for c in CONVENTIONS])
    return lhs, rhs, f"n={n};{_pdig(params)}"


@_property("potential_curvature", "Theorem 5.1", "identity", tol=1e-6)
def _check_potential_curvature(rng, trial):
    params = _draw_params(rng)
    u = float(rng.uniform(0.2, 2.0))
    c1 = float(rng.uniform(-1.0, 1.0))
    c2 = float(rng.uniform(-1.0, 1.0))
    # step balances truncation (h^2 / u^2) against roundoff (eps / h^2)
    h = 2e-4 * np.sqrt(u)
    lhs = []
    for conv in CONVENTIONS:
        a = metric_coefficient(params, conv)
        coeffs = PotentialCoefficients(A=a, c1=c1, c2=c2)
        fd = (
            hessian_potential(u + h, coeffs)
            - 2.0 * hessian_potential(u, coeffs)
            + hessian_potential(u - h, coeffs)
        ) / (h * h)
        lhs.append(fd / (a / u))
    return lhs, 1.0, f"u={u!r};c1={c1!r};c2={c2!r};{_pdig(params)}"


@_property(
    "metric_positive_definite", "induced metric (positive definiteness)", "inequality"
)
def _check_metric_positive_definite(rng, trial):
    params = _draw_params(rng)
    n = _draw_size(rng, floor=2)
    p = Distribution(np.full(n, 1.0 / n)) if trial == 0 else _draw_interior_dist(rng, n)
    g = fisher_metric(p, params, "derived").g
    return g, 0.0, f"n={n};{_pdig(params)}"


@_property("taylor_expansion", "induced metric (quadratic expansion)", "inequality")
def _check_taylor_expansion(rng, trial):
    # Per coordinate f(a) = (a - a^{1-2k} p^{2k}) / (2k) has f(p) = 0, f' = 1,
    # f'' = (1-2k)/p, f^(3) = -(1-4k^2)/p^2, f^(4) = 2(1-4k^2)(1+k)/p^3 and
    # |f^(5)| <= (1-4k^2)(2k+2)(2k+3) min(p,a)^{-2k-4} p^{2k} between p and a.
    # So what D(a||p) leaves after its cubic expansion must match the quartic
    # term to within the fifth-order Lagrange bound: slack = 1 - error/bound.
    params = _draw_params(rng)
    k = params.k
    n = _draw_size(rng, floor=2)
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

_REGISTRY: dict[str, PropertySpec] = {s.name: s for s in _SPECS}


def list_properties() -> list[tuple[str, str, str]]:
    """All registered properties as (name, anchor, kind) in run order."""
    return [(s.name, s.anchor, s.kind) for s in _SPECS]


def run_single(config: SweepConfig, name: str, trial: int) -> CheckResult:
    """Run one (property, trial) pair; fully determined by the config seed."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(f"unknown property {name!r}")
    trial = _integer("trial", trial)
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    seed = _child_seed(config.seed, name, trial)
    rng = np.random.default_rng(seed)
    out = spec.fn(rng, trial)
    if not isinstance(out, Outcome):
        out = _outcome(spec.kind, *out)
    # a config tolerance overrides the property's
    passed = _KINDS[spec.kind].shortfall(out.slack) <= (config.tol or spec.tol)
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
    shortfall = _KINDS[spec.kind].shortfall
    worst = max(results, key=lambda r: shortfall(r.slack)).slack
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
    wanted = _REGISTRY.keys() if config.properties is None else set(config.properties)
    unknown = [n for n in config.properties or () if n not in _REGISTRY]
    if unknown:
        raise ConfigError(f"unknown properties: {', '.join(unknown)}")
    reports = []
    for spec in (s for s in _SPECS if s.name in wanted):
        results = [run_single(config, spec.name, t) for t in range(config.trials)]
        reports.append(_aggregate(spec, results))
    return VerificationReport(config=config, properties=tuple(reports))
