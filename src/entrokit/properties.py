"""The sweep's properties: every identity and inequality of the deformed-log,
entropy, divergence and geometry modules, each as one batched check.

A check `fn(draw, trial) -> (lhs, rhs, fields)` is registered, in run
order, by `@_property(name, anchor, kind, uniforms, tol=None)`. It gets
the T trials of one batch at once: `draw` turns their uniforms (at most
`uniforms` per trial) into variates, `trial` is the (T, 1) column of
their indices, lhs and rhs are (T, m) rows or (T, 1) columns, and
`fields` names the per-trial values of the instance digest. Instances are
zero-padded to a fixed width (16 cells for vectors, 16 x 16 and 8 x 8 x 8
for joints). Padding is exact: a zero cell adds 0 to an entropy, and a
cell where P is 0 adds 0 to a divergence (Lemma 4.4). The linear entropy
laws of Section 3 are one-line `_entropy_law` entries.

Entropies and divergences come from the batched `_*_rows` evaluators of
`entrokit.entropy` and `entrokit.divergence`, and finite-difference
Hessians from `entrokit.geometry._fd_hessian_rows`, which the public
functions call on a batch of one. So do the operators: marginals
(`Distribution.marginal`), simplex draws (`sample_distribution` and
`sample_channel`), outer products (`product`), channel pushes
(`apply_channel`) and mixtures (`mix`) come from `_marginal_rows`,
`_simplex_rows`, `_outer_rows`, `_push_rows` and `_mix_rows` of
`entrokit.distributions`, and metric diagonals (`fisher_metric`) and
quadratic forms (`quadratic_form`) from `_metric_rows` and
`_quadratic_rows` of `entrokit.geometry`. This module defines no sum and
no operator of its own.
`_fd_hessian_rows` takes each displaced point's sum as its at most two
nonzero terms, which holds for a cell-by-cell kernel only; so
hessian_separability sums the four corners of each mixed difference whole
through `_divergence_rows` instead, and a kernel that couples cells fails
it.

The kind supplies the slack rule and picks the worst element of each row.
Identities record slack = (lhs - rhs) / max(1, |lhs|, |rhs|) and pass when
|slack| <= tol (default 1e-12). Inequalities record slack = lhs - rhs and
pass when slack >= -tol (additive, default 1e-9; true slacks approach 0 at
equality cases, which are injected deterministically as trial 0 where
meaningful). A few oracle-based checks return a slack of their own as a
fourth element, `(lhs, rhs, fields, slack)`, whose worst element the kind
picks all the same, and may carry their own tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .deformed_log import DeformParams, legacy_Ln, legacy_u, ln_kr
from .distributions import (_check_rows, _marginal_rows, _mix_rows, _outer_rows, _push_rows,
                            _rowsum, _simplex_rows)
from .divergence import _divergence_literal_rows, _divergence_rows, _kl_rows, _log_sum_rows
from .entropy import (
    AXIS_LETTERS,
    _conditional_rows,
    _entropy_literal_rows,
    _entropy_rows,
    _letter_axes,
    _shannon_rows,
)
from .geometry import (
    CONVENTIONS,
    PotentialCoefficients,
    _fd_hessian_rows,
    _metric_rows,
    _quadratic_rows,
    hessian_potential,
    metric_coefficient,
)

IDENTITY_TOL = 1e-12
INEQUALITY_TOL = 1e-9

SCALAR_BATCH = 128

# Every sweep instance draws its support sizes, k and r from these ranges.
SIZE_RANGE = (1, 16)
K_RANGE = (0.05, 0.45)
R_RANGE = (0.1, 2.0)

# Padded shapes of vectors and of joints of two and of three variables
VECTOR = SIZE_RANGE[1]
JOINT2 = (VECTOR, VECTOR)
JOINT3 = (8, 8, 8)


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
    fn: Callable  # (draw, trial) -> (lhs, rhs, fields) | (lhs, rhs, fields, slack)
    tol: float  # the property's own tolerance, else its kind's
    width: int  # uniforms per trial, in whole Philox blocks of 4


# Filled in definition order by @_property; that order is the run order.
_SPECS: list[PropertySpec] = []


def _property(name: str, anchor: str, kind: str, uniforms: int, tol: float | None = None):
    """Register the decorated check `fn(draw, trial)`, which reads at most
    `uniforms` uniforms per trial, as a property."""

    def register(fn):
        width = -(-uniforms // 4) * 4
        _SPECS.append(PropertySpec(name, anchor, kind, fn, tol or _KINDS[kind].tol, width))
        return fn

    return register


# ---------------------------------------------------------------------------
# batched draws and padded instances


@dataclass(frozen=True)
class _Params(DeformParams):
    """Per-trial (T, 1) columns of k and r: a DeformParams to the library's
    type checks, but not validated. The kernels read only params.k and
    params.r, so they broadcast them against (T, ...) arrays."""

    def __post_init__(self):
        pass

    @property
    def fields(self) -> dict:
        return {"k": self.k, "r": self.r}


class _Draw:
    """Variates from a batch's (T, width) uniforms: each call takes the next
    columns of every trial's row, so a trial's variates depend on its row
    alone. Reading past the row fails in the reshape."""

    def __init__(self, u: np.ndarray):
        self.u, self.used = u, 0

    def take(self, *shape: int) -> np.ndarray:
        """The next uniforms of each trial as (T, *shape), or a (T, 1) column."""
        n = math.prod(shape)
        self.used += n
        return self.u[:, self.used - n : self.used].reshape(len(self.u), *(shape or (1,)))

    def uniform(self, lo, hi, *shape: int) -> np.ndarray:
        return lo + (hi - lo) * self.take(*shape)

    def size(self, cap=SIZE_RANGE[1], floor: int = SIZE_RANGE[0]) -> np.ndarray:
        """A (T, 1) column of integers uniform on floor..cap; for an array
        of caps, (T, len(cap)) columns, each on floor..its cap, in turn."""
        return floor + (self.take(*np.shape(cap)) * (cap - floor + 1)).astype(np.int64)

    def exponential(self, *shape: int) -> np.ndarray:
        e = np.log(self.take(*shape))
        return np.negative(e, out=e)

    def normal(self, *shape: int) -> np.ndarray:  # Box-Muller
        radius = np.sqrt(-2.0 * np.log(self.take(*shape)))
        return radius * np.cos(2.0 * np.pi * self.take(*shape))

    def params(self) -> _Params:
        k_r = self.uniform(*_PARAM_RANGE, 2)  # k, then r
        return _Params(k_r[:, :1], k_r[:, 1:])


_PARAM_RANGE = np.array([K_RANGE, R_RANGE]).T  # (lo, hi) rows of (k, r)


@functools.cache
def _grid(shape: tuple[int, ...]) -> np.ndarray:
    """(ndim, cells) indices on each axis of the cells of a C-ordered array
    of `shape`; made once per shape, and read-only."""
    grid = np.indices(shape).reshape(len(shape), -1)
    grid.setflags(write=False)
    return grid


def _mask(sizes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(T, *shape) mask of each trial's cells, given its (T, ndim) sizes;
    made as (T, cells) rows, whose comparisons run contiguously."""
    grid = _grid(shape)
    mask = grid[0] < sizes[:, :1]
    for axis in range(1, len(shape)):
        mask &= grid[axis] < sizes[:, axis : axis + 1]
    return mask.reshape(len(sizes), *shape)


def _simplex(e: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each trial's exponentials inside its sizes, normalized: a uniform
    point of its simplex (flat Dirichlet), zero-padded and validated."""
    p = _simplex_rows(np.where(_mask(sizes, e.shape[1:]), e, 0.0))
    _check_rows(p)
    return p


def _vector(draw: _Draw, n=None) -> tuple[np.ndarray, np.ndarray]:
    """(T, 1) sizes and random distributions of that many cells, padded to VECTOR."""
    n = draw.size() if n is None else n
    return n, _simplex(draw.exponential(VECTOR), n)


def _pair(draw: _Draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, p = _vector(draw)
    return n, p, _vector(draw, n)[1]


def _interior(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    # keep every coordinate >= 1/(2n) so finite differences stay in (0, 1)
    return np.where(p > 0, 0.5 * p + 0.5 / n, 0.0)


# ---------------------------------------------------------------------------
# deformed-log properties


def _weighted(x, params):
    return np.power(x, params.r + params.k) * ln_kr(x, params)


def _scalars(draw: _Draw, count: int = SCALAR_BATCH, lo: float = 0.05, hi: float = 20.0):
    """(T, count) log-uniform scalars on [lo, hi]."""
    return np.exp(draw.uniform(np.log(lo), np.log(hi), count))


def _scalar_law(name: str, anchor: str):
    """Register the decorated identity `law(x, y, params) -> (lhs, rhs)` over
    SCALAR_BATCH log-uniform pairs (x, y) per trial."""

    def register(law):
        @_property(name, anchor, "identity", 2 + 2 * SCALAR_BATCH)
        def check(draw, trial):
            params = draw.params()
            lhs, rhs = law(_scalars(draw), _scalars(draw), params)
            return lhs, rhs, {"batch": SCALAR_BATCH, **params.fields}

        return law

    return register


@_scalar_law("product_rule_1", "Lemma 2.4")
def _product_rule_1(x, y, params):
    wx, wy = _weighted(x, params), _weighted(y, params)
    return _weighted(x * y, params), wx + wy + 2.0 * params.k * wx * wy


@_scalar_law("product_rule_2", "Lemma 2.5")
def _product_rule_2(x, y, params):
    k, r = params.k, params.r
    rhs = (np.power(x, -(r - k)) * ln_kr(y, params)
           + np.power(y, -(r + k)) * ln_kr(x, params))
    return ln_kr(x * y, params), rhs


@_scalar_law("inversion", "Corollary 2.6")
def _inversion(x, y, params):
    return ln_kr(1.0 / x, params), -np.power(x, 2.0 * params.r) * ln_kr(x, params)


@_scalar_law("quotient", "Corollary (quotient rule)")
def _quotient(x, y, params):
    k, r = params.k, params.r
    rhs = (-np.power(y, 2.0 * r) / np.power(x, r - k) * ln_kr(y, params)
           + np.power(y, r + k) * ln_kr(x, params))
    return ln_kr(x / y, params), rhs


@_property("power_rule", "Lemma (power rule)", "identity", 3 + SCALAR_BATCH)
def _check_power_rule(draw, trial):
    params = draw.params()
    a = draw.uniform(0.1, np.minimum(0.5 / params.k, 4.0))
    x = _scalars(draw, lo=0.2, hi=5.0)
    rhs = a * ln_kr(x, _Params(a * params.k, a * params.r))
    return ln_kr(np.power(x, a), params), rhs, {"a": a, "batch": SCALAR_BATCH, **params.fields}


def _second_differences(f: np.ndarray) -> np.ndarray:
    return f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]


@_property("convexity_weighted_neg", "Lemma 2.7", "inequality", 2)
def _check_convexity_weighted_neg(draw, trial):
    params = draw.params()
    f = -_weighted(np.linspace(1e-3, 1.0, 201), params)
    return _second_differences(f), 0.0, {"grid": 201, **params.fields}


@_property("convexity_logsum_weight", "Lemma 2.8", "inequality", 3)
def _check_convexity_logsum_weight(draw, trial):
    params = draw.params()
    hi = draw.uniform(1.5, 4.0)
    grid = np.linspace(1e-3, hi[:, 0], 201, axis=1)
    f = np.power(grid, params.r - params.k + 1.0) * ln_kr(grid, params)
    return _second_differences(f), 0.0, {"grid": 201, "hi": hi, **params.fields}


@_property("legacy_shape", "Theorem 2.1", "inequality", 2)
def _check_legacy_shape(draw, trial):
    params = _Params(draw.uniform(0.1, 1.0), draw.uniform(-0.9, -0.05))
    g = -legacy_Ln(np.linspace(1e-3, 1.0, 200), params, warn_outside_region=False)
    # -Ln is positive, decreasing and convex
    shape = np.hstack([g, g[:, :-1] - g[:, 1:], _second_differences(g)])
    return shape, 0.0, {"grid": 200, **params.fields}


@_property("legacy_product_rule", "Eq. (10)", "identity", 2 + 2 * SCALAR_BATCH)
def _check_legacy_product_rule(draw, trial):
    k = draw.uniform(0.05, 0.95)
    bound = np.where(k < 0.5, k, 1.0 - k)  # inside the legacy region
    params = _Params(k, draw.uniform(-bound, bound))
    x, y = _scalars(draw, hi=5.0), _scalars(draw, hi=5.0)
    ln = functools.partial(legacy_Ln, params=params, warn_outside_region=False)
    rhs = legacy_u(x, params) * ln(y) + ln(x) * legacy_u(y, params)
    return ln(x * y), rhs, {"batch": SCALAR_BATCH, **params.fields}


@_property("log_sum_inequality", "Theorem 2.9", "inequality", 3 + 2 * VECTOR)
def _check_log_sum(draw, trial):
    params = draw.params()
    n = draw.size()
    live = _mask(n, (VECTOR,))
    a = np.where(live, _scalars(draw, VECTOR), 0.0)
    equal = trial == 0
    b = np.where(live & ~equal, _scalars(draw, VECTOR), a)
    lhs, rhs = _log_sum_rows(a, b, params.k)
    return lhs, rhs, {"n": n, "equal": equal, **params.fields}


# ---------------------------------------------------------------------------
# entropy properties


def _law_side(side: str):
    """Terms over the axis letters XYZ joined by " + " or " - ", as a function
    of a padded batch of joints and k with (T, 1) values: "A" is S(A), the
    joint's own entropy when A names every axis, and "A|B" is S(A|B), each
    the entropy module's own batched sum. The terms are added left to right."""

    def term(text: str):
        sign, text = (-1.0, text[1:]) if text[0] == "-" else (1.0, text)
        of, _, given = text.partition("|")
        of, given = _letter_axes(of, given, len(AXIS_LETTERS))
        axes = given + of  # the given variables lead
        if given:
            return lambda j, k: sign * _conditional_rows(_marginal_rows(j, axes), k, len(given))
        return lambda j, k: sign * _entropy_rows(_marginal_rows(j, axes), k)

    terms = [term(t) for t in side.replace(" - ", " + -").split(" + ")]
    return lambda j, k: functools.reduce(operator.add, [t(j, k) for t in terms])


def _joint(draw: _Draw, shape: tuple[int, ...], trial: np.ndarray, case=None):
    """(T, ndim) support sizes and random joints zero-padded to `shape`; trial
    0 draws the equality `case(sizes, e)` instead, when one is given."""
    sizes = draw.size(np.array(shape))
    e = draw.exponential(*shape)
    p = _simplex(e, sizes)
    if case is not None and trial[0, 0] == 0:  # trial 0 only ever leads a batch
        sizes[:1], p[:1] = case(sizes[:1], e[:1])
    return sizes, p


def _entropy_law(name: str, anchor: str, shape, law: str, trial0=None) -> None:
    """Register `law`, "lhs = rhs" (an identity) or "lhs >= rhs" (an
    inequality) between sides read by `_law_side`, over random joints padded
    to `shape`, or at trial 0 the equality case `trial0` when one is given."""
    lhs, relation, rhs = re.split(" (>?=) ", law)
    left, right = _law_side(lhs), _law_side(rhs)
    kind = "inequality" if relation == ">=" else "identity"

    @_property(name, anchor, kind, 2 + len(shape) + math.prod(shape))
    def check(draw, trial):
        params = draw.params()
        sizes, j = _joint(draw, shape, trial, trial0)
        return left(j, params.k), right(j, params.k), {"shape": sizes, **params.fields}


# Equality cases, drawn at trial 0 in place of a random joint.
def _point(axis: int):
    """The variable on `axis` is a point mass; dyadic weights make its row
    sum to exactly 1, so that S(Y|X) = S(Y) bit for bit."""

    def case(sizes, e):
        sizes = sizes.copy()
        sizes[:, axis] = 1
        return sizes, _dyadic(_simplex(e, sizes))

    return case


def _independent(sizes, e):
    px, py = _simplex(e[:, :, 0], sizes[:, :1]), _simplex(e[:, :, 1], sizes[:, 1:])
    return sizes, _outer_rows(px, py)


def _dyadic(p: np.ndarray) -> np.ndarray:
    """p rounded to multiples of 2^-32 that sum to exactly 1, so every
    partial sum of its cells is exact."""
    cum = np.round(np.cumsum(p.reshape(len(p), -1), axis=1) * 2.0**32)
    out = (np.diff(cum, axis=1, prepend=0.0) / 2.0**32).reshape(p.shape)
    _check_rows(out)
    return out


_entropy_law("chain_rule", "Theorem 3.6", JOINT2, "XY = X + Y|X")
_entropy_law("conditional_reduces_entropy", "Lemma 3.5", JOINT2, "Y >= Y|X", _point(0))
_entropy_law("joint_monotonicity", "Theorem 3.6 (consequence)", JOINT2, "XY >= X", _point(1))


def _product(draw: _Draw):
    """(params, product joint of two random vectors, S(X), S(Y), fields)."""
    params = draw.params()
    (n1, p), (n2, q) = _vector(draw), _vector(draw)
    sx, sy = _entropy_rows(p, params.k), _entropy_rows(q, params.k)
    return params, _outer_rows(p, q), sx, sy, {"shape": np.hstack([n1, n2]), **params.fields}


@_property("independence_rule", "Lemma 3.4", "identity", 2 + 2 * (1 + VECTOR))
def _check_independence_rule(draw, trial):
    params, j, sx, sy, fields = _product(draw)
    return _conditional_rows(j, params.k), sy - 2.0 * params.k * sx * sy, fields


@_property("entropy_pseudo_additivity", "Eq. (29)", "identity", 2 + 2 * (1 + VECTOR))
def _check_entropy_pseudo_additivity(draw, trial):
    params, j, sx, sy, fields = _product(draw)
    return _entropy_rows(j, params.k), sx + sy - 2.0 * params.k * sx * sy, fields


_entropy_law("subadditivity", "Theorem 3.9", JOINT2, "X + Y >= XY", _independent)
_entropy_law("conditional_comparison", "Lemma 3.10", JOINT3, "Y|Z >= Y|XZ", _point(0))
_entropy_law("strong_subadditivity", "Theorem 3.11", JOINT3, "XZ + YZ >= XYZ + Z", _point(0))
_entropy_law("corollary_3_7", "Corollary 3.7", JOINT3, "XYZ = XY|Z + Z")
_entropy_law("corollary_3_8", "Corollary 3.8", JOINT3, "XY|Z = X|Z + Y|XZ")
_entropy_law(
    "conditional_joint_monotonicity", "Corollary 3.8 (consequence)", JOINT3, "XY|Z >= X|Z"
)
_entropy_law(
    "mutual_entropy_consistency", "Theorem 3.6 (mutual form)", JOINT2, "X + Y - XY = Y - Y|X"
)


@_property("entropy_r_independence", "observed r-cancellation", "identity", 4 + VECTOR)
def _check_entropy_r_independence(draw, trial):
    k, r1, r2 = draw.uniform(*K_RANGE), draw.uniform(*R_RANGE), draw.uniform(*R_RANGE)
    n, p = _vector(draw)
    lit1, lit2 = (_entropy_literal_rows(p, _Params(k, r)) for r in (r1, r2))
    return lit1, lit2, {"n": n, "k": k, "r1": r1, "r2": r2}


@_property("shannon_limit", "Shannon limit", "inequality", 1 + VECTOR)
def _check_shannon_limit(draw, trial):
    n, p = _vector(draw)
    ref = _shannon_rows(p)
    err = abs(_entropy_rows(p, 1e-4) - ref)
    return 1e-3 * (1.0 + ref), err, {"n": n, "k=r": 1e-4}


# ---------------------------------------------------------------------------
# divergence properties


@_property("divergence_nonnegativity", "Lemma 4.2", "inequality", 3 + 2 * VECTOR)
def _check_divergence_nonneg(draw, trial):
    params = draw.params()
    n, p, q = _pair(draw)
    equal = trial == 0
    q = np.where(equal, p, q)
    return _divergence_rows(p, q, params.k), 0.0, {"n": n, "equal": equal, **params.fields}


@_property(
    "identity_of_indiscernibles", "Lemma 4.2 (equality case)", "inequality", 4 + 3 * VECTOR
)
def _check_indiscernibles(draw, trial):
    # near-coincident pairs: if D <= 1e-12 the points must agree to 1e-4
    params = draw.params()
    n, p = _vector(draw, np.maximum(2, draw.size()))
    p = _interior(p, n)
    live = p > 0
    scale = 10.0 ** draw.uniform(-9.0, -3.0)
    noise = np.where(live, draw.normal(VECTOR), 0.0)
    noise = np.where(live, noise - _rowsum(noise) / n, 0.0)
    perturbed = np.where(live, (p + scale * noise).clip(min=1e-12), 0.0)
    q = _simplex_rows(perturbed)
    _check_rows(q)
    d = _divergence_rows(p, q, params.k)
    maxdiff = np.max(np.abs(p - q), axis=1, keepdims=True)
    # a false antecedent satisfies the implication vacuously
    slack = np.where(d <= 1e-12, 1e-4 - maxdiff, 1e-4)
    return d, maxdiff, {"n": n, "scale": scale, **params.fields}, slack


@_property("permutation_symmetry", "Lemma 4.3", "identity", 3 + 3 * VECTOR)
def _check_permutation_symmetry(draw, trial):
    params = draw.params()
    n, p, q = _pair(draw)
    # a uniform permutation of each trial's n cells; the padding stays last
    perm = np.argsort(np.where(_mask(n, (VECTOR,)), draw.take(VECTOR), 2.0), axis=1)
    lhs = _divergence_rows(p, q, params.k)
    rhs = _divergence_rows(*(np.take_along_axis(a, perm, axis=1) for a in (p, q)), params.k)
    return lhs, rhs, {"n": n, **params.fields}


@_property("zero_extension", "Lemma 4.4", "identity", 3 + 2 * VECTOR)
def _check_zero_extension(draw, trial):
    params = draw.params()
    n, p, q = _pair(draw)
    # three zero cells beyond the padding
    extend = functools.partial(np.pad, pad_width=((0, 0), (0, 3)))
    lhs = _divergence_rows(extend(p), extend(q), params.k)
    return lhs, _divergence_rows(p, q, params.k), {"n": n, "pad": 3, **params.fields}


@_property("divergence_pseudo_additivity", "Theorem 4.5", "identity", 4 + 4 * VECTOR)
def _check_divergence_pseudo_additivity(draw, trial):
    params = draw.params()
    k = params.k
    (n1, p1, q1), (n2, p2, q2) = _pair(draw), _pair(draw)
    d1, d2 = _divergence_rows(p1, q1, k), _divergence_rows(p2, q2, k)
    lhs = _divergence_rows(_outer_rows(p1, p2), _outer_rows(q1, q2), k)
    return lhs, d1 + d2 - 2.0 * k * d1 * d2, {"n1": n1, "n2": n2, **params.fields}


@_property("joint_convexity", "Theorem 4.6", "inequality", 3 + 4 * VECTOR)
def _check_joint_convexity(draw, trial):
    params = draw.params()
    k = params.k
    n, p1 = _vector(draw)
    q1, p2, q2 = (_vector(draw, n)[1] for _ in range(3))
    equal = trial == 0
    p2, q2 = np.where(equal, p1, p2), np.where(equal, q1, q2)
    d1, d2 = _divergence_rows(p1, q1, k), _divergence_rows(p2, q2, k)
    lam = np.linspace(0.0, 1.0, 11)
    # the 11 mixtures of (p1, p2) and of (q1, q2), each trial's in turn
    mixed = _mix_rows(np.stack([p1, q1])[:, :, None], np.stack([p2, q2])[:, :, None], lam[:, None])
    rhs = _divergence_rows(*mixed.reshape(2, -1, VECTOR), np.repeat(k, lam.size, axis=0))
    lhs = (1.0 - lam) * d1 + lam * d2  # written out: a wrong _mix_rows must not move both sides
    return lhs, rhs.reshape(lhs.shape), {"n": n, "equal": equal, **params.fields}


@_property("information_monotonicity", "Theorem 4.7", "inequality", 4 + 21 * VECTOR)
def _check_information_monotonicity(draw, trial):
    # trial 0 the identity channel, then random and deterministic channels in turn
    params = draw.params()
    n, p, q = _pair(draw)
    first, even = trial == 0, trial % 2 == 0
    m = np.where(first, n, 1 + (draw.take() * (n + 2)).astype(np.int64))  # outputs
    outputs = np.arange(VECTOR + 2)[:, None]
    e = np.where(outputs < m[:, :, None], draw.exponential(VECTOR + 2, VECTOR), 0.0)
    random = e / e.sum(axis=1, keepdims=True)
    # a deterministic channel sends each input to one random output
    function = outputs == (draw.take(VECTOR) * m).astype(np.int64)[:, None, :]
    w = np.where(even[:, :, None], random, function)
    w = np.where(first[:, :, None], outputs == np.arange(VECTOR), w)
    wp, wq = (_push_rows(w, a) for a in (p, q))
    _check_rows(wp)
    _check_rows(wq)
    channel = np.where(first, "identity", np.where(even, "random", "deterministic"))
    lhs, rhs = _divergence_rows(p, q, params.k), _divergence_rows(wp, wq, params.k)
    return lhs, rhs, {"n": n, "channel": channel, "m": m, **params.fields}


@_property("divergence_r_independence", "observed r-cancellation", "identity", 4 + 2 * VECTOR)
def _check_divergence_r_independence(draw, trial):
    k, r1, r2 = draw.uniform(*K_RANGE), draw.uniform(*R_RANGE), draw.uniform(*R_RANGE)
    n, p, q = _pair(draw)
    lit1, lit2 = (_divergence_literal_rows(p, q, _Params(k, r), "pq") for r in (r1, r2))
    return lit1, lit2, {"n": n, "k": k, "r1": r1, "r2": r2}


@_property("definitional_equivalence", "Definition 4.1", "identity", 3 + 2 * VECTOR)
def _check_definitional_equivalence(draw, trial):
    params = draw.params()
    n, p, q = _pair(draw)
    lhs, rhs = (_divergence_literal_rows(p, q, params, form) for form in ("pq", "qp"))
    return lhs, rhs, {"n": n, **params.fields}


@_property("kl_limit", "KL limit", "inequality", 1 + 2 * VECTOR)
def _check_kl_limit(draw, trial):
    n, p, q = _pair(draw)
    ref = _kl_rows(p, q)
    err = abs(_divergence_rows(p, q, 1e-4) - ref)
    return 1e-3 * (1.0 + ref), err, {"n": n, "k=r": 1e-4}


# ---------------------------------------------------------------------------
# geometry properties

_FD_CAP = 6  # the finite-difference checks draw 2.._FD_CAP coordinates


def _fd_base(draw: _Draw):
    """(T, 1) sizes n and interior base points padded with 1.0 to _FD_CAP."""
    params = draw.params()
    n, p = _vector(draw, draw.size(cap=_FD_CAP, floor=2))
    p = _interior(p, n)
    _check_rows(p)
    return params, n, np.where(p > 0, p, 1.0)[:, :_FD_CAP]


@_property(
    "hessian_separability", "induced metric (off-diagonal vanishing)", "identity",
    3 + VECTOR, tol=1e-8,
)
def _check_hessian_separability(draw, trial):
    # The central mixed difference of a -> D(a || p) for each live pair, from
    # its four corners p +- h e_i +- h e_j summed whole by _divergence_rows,
    # the library's own sum: a kernel that couples cells fails here. The
    # off-diagonals are row-major: the n x n block's keep their order, (0, 1)
    # leads, and the zeros beyond the block never rank above it as worst.
    params, n, pv = _fd_base(draw)
    h = 1e-4
    iu, ju = np.triu_indices(_FD_CAP, 1)
    at, pair = np.nonzero(ju < n)  # each trial's live pairs, in row-major order
    i, j = iu[pair], ju[pair]
    base = np.repeat(pv[at], 4, axis=0)
    corners = base.reshape(-1, 4, _FD_CAP).copy()
    rows, corner = np.arange(pair.size)[:, None], np.arange(4)
    corners[rows, corner, i[:, None]] += h * np.array([1.0, 1.0, -1.0, -1.0])
    corners[rows, corner, j[:, None]] += h * np.array([1.0, -1.0, 1.0, -1.0])
    k = np.repeat(params.k[at], 4, axis=0)
    d = _divergence_rows(corners.reshape(base.shape), base, k).reshape(-1, 4)
    hess = np.zeros((len(pv), _FD_CAP, _FD_CAP))
    hess[at, i, j] = hess[at, j, i] = (d[:, 0] - d[:, 1] - d[:, 2] + d[:, 3]) / (4.0 * h * h)
    off = hess[:, ~np.eye(_FD_CAP, dtype=bool)]
    return off, 0.0, {"n": n, "step": h, **params.fields}


@_property(
    "metric_oracle_agreement", "induced metric (diagonal oracle)", "identity",
    3 + VECTOR, tol=1e-5,
)
def _check_metric_oracle_agreement(draw, trial):
    params, n, pv = _fd_base(draw)
    hess = _fd_hessian_rows(pv, n, params.k, 1e-4)
    g = _metric_rows(pv, params)
    live = np.arange(_FD_CAP) < n
    fd = np.where(live, np.diagonal(hess, axis1=1, axis2=2), g)  # the padding agrees exactly
    return fd, g, {"n": n, **params.fields}, (fd - g) / g


@_property("metric_hessian_structure", "Theorem 5.1", "identity", 3 + VECTOR)
def _check_metric_hessian_structure(draw, trial):
    # The library's diagonal A / p against the second derivative of the
    # divergence term (a - a^{1-2k} p^{2k}) / 2k at a = p, written with
    # powers as (1-2k) p^{-2k-1} p^{2k}; the paper's form adds 4r / p.
    params = draw.params()
    k = params.k
    n, p = _vector(draw, draw.size(floor=2))
    pv = np.where(p > 0, _interior(p, n), 1.0)  # the padding agrees exactly
    lhs = np.hstack([_metric_rows(pv, params, c) for c in CONVENTIONS])
    derived = (1.0 - 2.0 * k) * pv ** (-2.0 * k - 1.0) * pv ** (2.0 * k)
    second = {"derived": derived, "paper": derived + 4.0 * params.r / pv}
    rhs = np.hstack([second[c] for c in CONVENTIONS])
    return lhs, rhs, {"n": n, **params.fields}


@_property("potential_curvature", "Theorem 5.1", "identity", 5, tol=1e-6)
def _check_potential_curvature(draw, trial):
    params = draw.params()
    u, c1, c2 = draw.uniform(0.2, 2.0), draw.uniform(-1.0, 1.0), draw.uniform(-1.0, 1.0)
    # step balances truncation (h^2 / u^2) against roundoff (eps / h^2)
    h = 2e-4 * np.sqrt(u)
    lhs = []
    for conv in CONVENTIONS:
        a = metric_coefficient(params, conv)
        phi = functools.partial(hessian_potential, coeffs=PotentialCoefficients(a, c1, c2))
        fd = (phi(u + h) - 2.0 * phi(u) + phi(u - h)) / (h * h)
        lhs.append(fd / (a / u))
    return np.hstack(lhs), 1.0, {"u": u, "c1": c1, "c2": c2, **params.fields}


@_property(
    "metric_positive_definite", "induced metric (positive definiteness)", "inequality",
    3 + VECTOR,
)
def _check_metric_positive_definite(draw, trial):
    params = draw.params()
    n, p = _vector(draw, draw.size(floor=2))
    p = np.where(trial == 0, np.where(p > 0, 1.0 / n, 0.0), _interior(p, n))  # uniform at trial 0
    g = _metric_rows(np.where(p > 0, p, 1.0), params)
    return np.where(p > 0, g, np.inf), 0.0, {"n": n, **params.fields}


@_property(
    "taylor_expansion", "induced metric (quadratic expansion)", "inequality", 3 + 3 * VECTOR
)
def _check_taylor_expansion(draw, trial):
    # Per coordinate f(a) = (a - a^{1-2k} p^{2k}) / (2k) has f(p) = 0, f' = 1,
    # f'' = (1-2k)/p, f^(3) = -(1-4k^2)/p^2, f^(4) = 2(1-4k^2)(1+k)/p^3 and
    # |f^(5)| <= (1-4k^2)(2k+2)(2k+3) min(p,a)^{-2k-4} p^{2k} between p and a.
    # So what D(a||p) leaves after its cubic expansion must match the quartic
    # term to within the fifth-order Lagrange bound: slack = 1 - error/bound.
    params = draw.params()
    k = params.k
    n, p = _vector(draw, draw.size(floor=2))
    p = _interior(p, n)
    live = p > 0
    v = np.where(live, draw.normal(VECTOR), 0.0)
    v = np.where(live, v - _rowsum(v) / n, 0.0)
    a = p + v * (1e-2 / np.sqrt(_rowsum(v * v)))
    dp = a - p
    pv, av = np.where(live, p, 1.0), np.where(live, a, 1.0)  # the padding adds 0
    c = 1.0 - 4.0 * k * k
    rest = (
        _divergence_rows(a, p, k) - _rowsum(dp) - 0.5 * _quadratic_rows(pv, dp, params)
        + c / 6.0 * _rowsum(dp**3 / pv**2)
    )
    quartic = c * (1.0 + k) / 12.0 * _rowsum(dp**4 / pv**3)
    bound = c * (2.0 * k + 2.0) * (2.0 * k + 3.0) / 120.0 * _rowsum(
        np.abs(dp) ** 5 * np.minimum(pv, av) ** (-2.0 * k - 4.0) * pv ** (2.0 * k)
    )
    err = abs(rest - quartic)
    return bound, err, {"n": n, "delta": 1e-2, **params.fields}, 1.0 - err / bound
