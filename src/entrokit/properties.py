"""The sweep's properties: every identity and inequality of the deformed-log,
entropy, divergence and geometry modules, each a law checked on batches of
random instances.

A property is a law and a maker, registered in run order by
`@_law(name, anchor, kind, maker, tol=None, **fields)`. The maker,
`maker(draw, trial) -> _Instance`, makes the instance of the T trials of one
batch at once: `draw` turns their uniforms into variates, and `trial` is the
(T, 1) column of their indices, which only the equality cases read (drawn
deterministically as trial 0 where meaningful). A trial's width, the uniforms
it owns, is what its maker reads, rounded up to whole Philox blocks of 4. The
law, `law(instance) -> (lhs, rhs[, slack])`, states only the paper's
relation: lhs and rhs are (T, m) rows, (T, 1) columns or scalars. A law reads
no draw, so it runs as well on an instance built from plain arrays. The
instance digest lists the instance's own fields, then the law's `fields`,
then the instance's k and r. The linear entropy laws of Section 3 are one-line
`_entropy_law` entries.

Instances are zero-padded to a fixed width (16 cells for vectors, 16 x 16
and 8 x 8 x 8 for joints). Padding is exact: a zero cell adds 0 to an
entropy, and a cell where P is 0 adds 0 to a divergence (Lemma 4.4).

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
the equality cases). A few oracle-based laws return a slack of their own as
a third element, whose worst element the kind picks all the same, and may
carry their own tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .deformed_log import DeformParams, legacy_Ln, legacy_u, ln_kr
from .distributions import (_check_rows, _marginal_rows, _mix_rows, _outer_rows, _push_rows,
                            _rowsum, _simplex_rows)
from .divergence import (_divergence_literal_rows, _divergence_rows, _kl_rows, _log_sum_rows,
                         _unit_at_zero)
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
    law: Callable  # instance -> (lhs, rhs) | (lhs, rhs, slack)
    maker: Callable  # (draw, trial) -> instance
    tol: float  # the property's own tolerance, else its kind's
    fields: dict  # the law's own digest fields

    @property
    def width(self) -> int:
        """Uniforms per trial: what the maker reads, in whole Philox blocks of 4."""
        return _width(self.maker)


# Filled in definition order by @_law; that order is the run order.
_SPECS: list[PropertySpec] = []


def _law(name: str, anchor: str, kind: str, maker: Callable, tol: float | None = None,
         **fields):
    """Register the decorated `law(instance)` over the instances of `maker`
    as a property; `fields` are the law's own digest fields."""

    def register(law):
        _SPECS.append(PropertySpec(name, anchor, kind, law, maker, tol or _KINDS[kind].tol, fields))
        return law

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


class _Instance(SimpleNamespace):
    """One batch's instance, frozen: (T, ...) arrays, (T, 1) columns and
    constants by name. `shown`, the values that name it in the digest, are
    attributes too; `params`, a _Params or None, ends the digest."""

    def __init__(self, shown: dict, params=None, **values):
        super().__init__(shown=shown, params=params, **shown, **values)

    def __setattr__(self, name, value):
        raise AttributeError(f"an instance is frozen: cannot set {name}")

    def fields(self, law_fields: dict) -> dict:
        """The digest fields: the instance's own, the law's, then k and r."""
        tail = {} if self.params is None else self.params.fields
        return {**self.shown, **law_fields, **tail}


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
def _width(maker: Callable) -> int:
    """The uniforms a trial of `maker` reads, rounded up to whole Philox
    blocks of 4: counted on one probe trial, once per maker."""
    draw = _Draw(np.full((1, 1024), 0.5))  # no maker reads more
    maker(draw, np.zeros((1, 1), dtype=np.int64))
    return -(-draw.used // 4) * 4


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


def _vectors(draw: _Draw, count: int, n=None) -> tuple[np.ndarray, ...]:
    """(T, 1) sizes n, drawn unless given, then `count` random distributions
    of that many cells, padded to VECTOR."""
    n = draw.size() if n is None else n
    return (n, *(_simplex(draw.exponential(VECTOR), n) for _ in range(count)))


def _interior(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    # keep every coordinate >= 1/(2n) so finite differences stay in (0, 1)
    return np.where(p > 0, 0.5 * p + 0.5 / n, 0.0)


def _direction(draw: _Draw, live: np.ndarray, n: np.ndarray) -> np.ndarray:
    """A Gaussian direction on each trial's live cells, less its mean."""
    v = np.where(live, draw.normal(VECTOR), 0.0)
    return np.where(live, v - _rowsum(v) / n, 0.0)


def _scalars(draw: _Draw, count: int = SCALAR_BATCH, lo: float = 0.05, hi: float = 20.0):
    """(T, count) log-uniform scalars on [lo, hi]."""
    return np.exp(draw.uniform(np.log(lo), np.log(hi), count))


# ---------------------------------------------------------------------------
# instance makers: `maker(draw, trial) -> _Instance`, each in its draw order


def _params(draw, trial):
    """k and r alone, for the laws on a fixed grid."""
    return _Instance({}, draw.params())


def _legacy_params(draw, trial):
    """k on [0.1, 1] and r on [-0.9, -0.05], where Theorem 2.1 holds."""
    return _Instance({}, _Params(draw.uniform(0.1, 1.0), draw.uniform(-0.9, -0.05)))


def _grid_to_hi(draw, trial):
    """x, a grid of 201 points on [1e-3, hi], hi on [1.5, 4]."""
    params = draw.params()
    hi = draw.uniform(1.5, 4.0)
    return _Instance({"grid": 201, "hi": hi}, params, x=np.linspace(1e-3, hi[:, 0], 201, axis=1))


def _scalar_pairs(draw, trial):
    """x and y, SCALAR_BATCH log-uniform scalars each on [0.05, 20]."""
    params = draw.params()
    return _Instance({"batch": SCALAR_BATCH}, params, x=_scalars(draw), y=_scalars(draw))


def _powers(draw, trial):
    """An exponent a on [0.1, min(1/2k, 4)] and SCALAR_BATCH bases x on [0.2, 5]."""
    params = draw.params()
    a = draw.uniform(0.1, np.minimum(0.5 / params.k, 4.0))
    return _Instance({"a": a, "batch": SCALAR_BATCH}, params, x=_scalars(draw, lo=0.2, hi=5.0))


def _legacy_pairs(draw, trial):
    """(k, r) inside the legacy region, and x and y as in _scalar_pairs on [0.05, 5]."""
    k = draw.uniform(0.05, 0.95)
    bound = np.where(k < 0.5, k, 1.0 - k)
    params = _Params(k, draw.uniform(-bound, bound))
    return _Instance({"batch": SCALAR_BATCH}, params,
                     x=_scalars(draw, hi=5.0), y=_scalars(draw, hi=5.0))


def _weights(draw, trial):
    """Log-uniform weights a and b on each trial's n cells, padded with zeros;
    b = a at trial 0."""
    params = draw.params()
    n = draw.size()
    live = _mask(n, (VECTOR,))
    a = np.where(live, _scalars(draw, VECTOR), 0.0)
    equal = trial == 0
    b = np.where(live & ~equal, _scalars(draw, VECTOR), a)
    return _Instance({"n": n, "equal": equal}, params, a=a, b=b)


def _joint(shape: tuple[int, ...], case=None):
    """A maker of random joints j padded to `shape`, of (T, ndim) support
    sizes; trial 0 draws the equality `case(sizes, e)` instead, when one is
    given."""

    def make(draw, trial):
        params = draw.params()
        sizes = draw.size(np.array(shape))
        e = draw.exponential(*shape)
        j = _simplex(e, sizes)
        if case is not None and trial[0, 0] == 0:  # trial 0 only ever leads a batch
            sizes[:1], j[:1] = case(sizes[:1], e[:1])
        return _Instance({"shape": sizes}, params, j=j)

    return make


def _factors(draw, trial):
    """p and q, random distributions of n1 and n2 cells: a product's factors."""
    params = draw.params()
    (n1, p), (n2, q) = _vectors(draw, 1), _vectors(draw, 1)
    return _Instance({"shape": np.hstack([n1, n2])}, params, p=p, q=q)


def _distributions(count: int, params=True, equal=False):
    """A maker of `count` random distributions p, q (, p2, q2) on each
    trial's n cells, after k and r if `params`; with `equal`, trial 0's
    latter half repeats its former, an equality case."""

    def make(draw, trial):
        drawn = draw.params() if params else None
        n, *ps = _vectors(draw, count)
        shown = {"n": n, "equal": trial == 0} if equal else {"n": n}
        if equal:
            ps[count // 2 :] = [np.where(trial == 0, a, b) for a, b in zip(ps, ps[count // 2 :])]
        return _Instance(shown, drawn, **dict(zip(("p", "q", "p2", "q2"), ps)))

    return make


def _two_r(count: int):
    """A maker of k, two values r1 and r2 of r, and `count` random
    distributions p (, q) on each trial's n cells."""

    def make(draw, trial):
        k, r1, r2 = draw.uniform(*K_RANGE), draw.uniform(*R_RANGE), draw.uniform(*R_RANGE)
        n, *ps = _vectors(draw, count)
        return _Instance({"n": n, "k": k, "r1": r1, "r2": r2}, **dict(zip("pq", ps)))

    return make


def _near_pairs(draw, trial):
    """An interior point p and q, p moved along a direction of scale
    10^-9 .. 10^-3 and renormalized."""
    params = draw.params()
    n, p = _vectors(draw, 1, np.maximum(2, draw.size()))
    p = _interior(p, n)
    live = p > 0
    scale = 10.0 ** draw.uniform(-9.0, -3.0)
    q = _simplex_rows(np.where(live, (p + scale * _direction(draw, live, n)).clip(min=1e-12), 0.0))
    _check_rows(q)
    return _Instance({"n": n, "scale": scale}, params, p=p, q=q)


def _permuted_pairs(draw, trial):
    """p and q, and perm, a uniform permutation of each trial's n cells
    that keeps the padding last."""
    params = draw.params()
    n, p, q = _vectors(draw, 2)
    perm = np.argsort(np.where(_mask(n, (VECTOR,)), draw.take(VECTOR), 2.0), axis=1)
    return _Instance({"n": n}, params, p=p, q=q, perm=perm)


def _two_pairs(draw, trial):
    """Two pairs (p1, q1) and (p2, q2), of n1 and n2 cells."""
    params = draw.params()
    (n1, p1, q1), (n2, p2, q2) = _vectors(draw, 2), _vectors(draw, 2)
    return _Instance({"n1": n1, "n2": n2}, params, p1=p1, q1=q1, p2=p2, q2=q2)


def _channel_pairs(draw, trial):
    """p and q on n inputs and a channel w to m outputs: at trial 0 the
    identity, then random and deterministic channels in turn."""
    params = draw.params()
    n, p, q = _vectors(draw, 2)
    first, even = trial == 0, trial % 2 == 0
    m = np.where(first, n, 1 + (draw.take() * (n + 2)).astype(np.int64))  # outputs
    outputs = np.arange(VECTOR + 2)[:, None]
    e = np.where(outputs < m[:, :, None], draw.exponential(VECTOR + 2, VECTOR), 0.0)
    # a random channel: each input's column of outputs a simplex draw, as
    # sample_channel draws one
    random = _simplex_rows(e.swapaxes(1, 2).reshape(-1, VECTOR + 2)).reshape(len(e), VECTOR, -1)
    # a deterministic channel sends each input to one random output
    function = outputs == (draw.take(VECTOR) * m).astype(np.int64)[:, None, :]
    w = np.where(even[:, :, None], random.swapaxes(1, 2), function)
    w = np.where(first[:, :, None], outputs == np.arange(VECTOR), w)
    channel = np.where(first, "identity", np.where(even, "random", "deterministic"))
    return _Instance({"n": n, "channel": channel, "m": m}, params, p=p, q=q, w=w)


_FD_CAP = 6  # the finite-difference laws take 2.._FD_CAP coordinates


def _interior_points(cap: int = VECTOR, uniform_at_0=False, direction=False):
    """A maker of interior points p of each trial's n cells, 2 <= n <= cap,
    padded with zeros to cap, and with `direction` a direction v of zero sum
    on them; trial 0's point is uniform when `uniform_at_0`."""

    def make(draw, trial):
        params = draw.params()
        n, p = _vectors(draw, 1, draw.size(cap=cap, floor=2))
        p = _interior(p, n)
        if uniform_at_0:
            p = np.where(trial == 0, np.where(p > 0, 1.0 / n, 0.0), p)
        _check_rows(p)
        v = {"v": _direction(draw, p > 0, n)} if direction else {}
        return _Instance({"n": n}, params, p=p[:, :cap], **v)

    return make


def _potential_points(draw, trial):
    """A point u on [0.2, 2] and potential coefficients c1, c2 on [-1, 1]."""
    params = draw.params()
    u, c1, c2 = draw.uniform(0.2, 2.0), draw.uniform(-1.0, 1.0), draw.uniform(-1.0, 1.0)
    return _Instance({"u": u, "c1": c1, "c2": c2}, params)


# ---------------------------------------------------------------------------
# deformed-log properties


def _weighted(x, params):
    return np.power(x, params.r + params.k) * ln_kr(x, params)


@_law("product_rule_1", "Lemma 2.4", "identity", _scalar_pairs)
def _product_rule_1(i):
    wx, wy = _weighted(i.x, i.params), _weighted(i.y, i.params)
    return _weighted(i.x * i.y, i.params), wx + wy + 2.0 * i.params.k * wx * wy


@_law("product_rule_2", "Lemma 2.5", "identity", _scalar_pairs)
def _product_rule_2(i):
    k, r = i.params.k, i.params.r
    rhs = (np.power(i.x, -(r - k)) * ln_kr(i.y, i.params)
           + np.power(i.y, -(r + k)) * ln_kr(i.x, i.params))
    return ln_kr(i.x * i.y, i.params), rhs


@_law("inversion", "Corollary 2.6", "identity", _scalar_pairs)
def _inversion(i):
    return ln_kr(1.0 / i.x, i.params), -np.power(i.x, 2.0 * i.params.r) * ln_kr(i.x, i.params)


@_law("quotient", "Corollary (quotient rule)", "identity", _scalar_pairs)
def _quotient(i):
    k, r = i.params.k, i.params.r
    rhs = (-np.power(i.y, 2.0 * r) / np.power(i.x, r - k) * ln_kr(i.y, i.params)
           + np.power(i.y, r + k) * ln_kr(i.x, i.params))
    return ln_kr(i.x / i.y, i.params), rhs


@_law("power_rule", "Lemma (power rule)", "identity", _powers)
def _power_rule(i):
    rhs = i.a * ln_kr(i.x, _Params(i.a * i.params.k, i.a * i.params.r))
    return ln_kr(np.power(i.x, i.a), i.params), rhs


def _second_differences(f: np.ndarray) -> np.ndarray:
    return f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]


@_law("convexity_weighted_neg", "Lemma 2.7", "inequality", _params, grid=201)
def _convexity_weighted_neg(i):
    return _second_differences(-_weighted(np.linspace(1e-3, 1.0, 201), i.params)), 0.0


@_law("convexity_logsum_weight", "Lemma 2.8", "inequality", _grid_to_hi)
def _convexity_logsum_weight(i):
    k, r = i.params.k, i.params.r
    return _second_differences(np.power(i.x, r - k + 1.0) * ln_kr(i.x, i.params)), 0.0


@_law("legacy_shape", "Theorem 2.1", "inequality", _legacy_params, grid=200)
def _legacy_shape(i):
    g = -legacy_Ln(np.linspace(1e-3, 1.0, 200), i.params, warn_outside_region=False)
    # -Ln is positive, decreasing and convex
    return np.hstack([g, g[:, :-1] - g[:, 1:], _second_differences(g)]), 0.0


@_law("legacy_product_rule", "Eq. (10)", "identity", _legacy_pairs)
def _legacy_product_rule(i):
    ln = functools.partial(legacy_Ln, params=i.params, warn_outside_region=False)
    return ln(i.x * i.y), legacy_u(i.x, i.params) * ln(i.y) + ln(i.x) * legacy_u(i.y, i.params)


@_law("log_sum_inequality", "Theorem 2.9", "inequality", _weights)
def _log_sum(i):
    return _log_sum_rows(i.a, i.b, i.params.k)


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


def _entropy_law(name: str, anchor: str, shape, law: str, trial0=None) -> None:
    """Register `law`, "lhs = rhs" (an identity) or "lhs >= rhs" (an
    inequality) between sides read by `_law_side`, over random joints padded
    to `shape`, or at trial 0 the equality case `trial0` when one is given."""
    lhs, relation, rhs = re.split(" (>?=) ", law)
    left, right = _law_side(lhs), _law_side(rhs)
    kind = "inequality" if relation == ">=" else "identity"
    _law(name, anchor, kind, _joint(shape, trial0))(
        lambda i: (left(i.j, i.params.k), right(i.j, i.params.k)))


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


def _factor_entropies(i):
    """The product joint of the factors p and q, S(X) and S(Y)."""
    return _outer_rows(i.p, i.q), _entropy_rows(i.p, i.params.k), _entropy_rows(i.q, i.params.k)


@_law("independence_rule", "Lemma 3.4", "identity", _factors)
def _independence_rule(i):
    j, sx, sy = _factor_entropies(i)
    return _conditional_rows(j, i.params.k), sy - 2.0 * i.params.k * sx * sy


@_law("entropy_pseudo_additivity", "Eq. (29)", "identity", _factors)
def _entropy_pseudo_additivity(i):
    j, sx, sy = _factor_entropies(i)
    return _entropy_rows(j, i.params.k), sx + sy - 2.0 * i.params.k * sx * sy


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


@_law("entropy_r_independence", "observed r-cancellation", "identity", _two_r(1))
def _entropy_r_independence(i):
    return tuple(_entropy_literal_rows(i.p, _Params(i.k, r)) for r in (i.r1, i.r2))


_LIMIT_K = 1e-4  # the k of the Shannon and KL limits


@_law("shannon_limit", "Shannon limit", "inequality", _distributions(1, params=False),
      **{"k=r": _LIMIT_K})
def _shannon_limit(i):
    ref = _shannon_rows(i.p)
    return 1e-3 * (1.0 + ref), abs(_entropy_rows(i.p, _LIMIT_K) - ref)


# ---------------------------------------------------------------------------
# divergence properties


@_law("divergence_nonnegativity", "Lemma 4.2", "inequality", _distributions(2, equal=True))
def _divergence_nonneg(i):
    return _divergence_rows(i.p, i.q, i.params.k), 0.0


@_law("identity_of_indiscernibles", "Lemma 4.2 (equality case)", "inequality", _near_pairs)
def _indiscernibles(i):
    # near-coincident pairs: if D <= 1e-12 the points must agree to 1e-4
    d = _divergence_rows(i.p, i.q, i.params.k)
    maxdiff = np.max(np.abs(i.p - i.q), axis=1, keepdims=True)
    # a false antecedent satisfies the implication vacuously
    return d, maxdiff, np.where(d <= 1e-12, 1e-4 - maxdiff, 1e-4)


@_law("permutation_symmetry", "Lemma 4.3", "identity", _permuted_pairs)
def _permutation_symmetry(i):
    permuted = (np.take_along_axis(a, i.perm, axis=1) for a in (i.p, i.q))
    return _divergence_rows(i.p, i.q, i.params.k), _divergence_rows(*permuted, i.params.k)


@_law("zero_extension", "Lemma 4.4", "identity", _distributions(2), pad=3)
def _zero_extension(i):
    # three zero cells beyond the padding
    extend = functools.partial(np.pad, pad_width=((0, 0), (0, 3)))
    lhs = _divergence_rows(extend(i.p), extend(i.q), i.params.k)
    return lhs, _divergence_rows(i.p, i.q, i.params.k)


@_law("divergence_pseudo_additivity", "Theorem 4.5", "identity", _two_pairs)
def _divergence_pseudo_additivity(i):
    k = i.params.k
    d1, d2 = _divergence_rows(i.p1, i.q1, k), _divergence_rows(i.p2, i.q2, k)
    lhs = _divergence_rows(_outer_rows(i.p1, i.p2), _outer_rows(i.q1, i.q2), k)
    return lhs, d1 + d2 - 2.0 * k * d1 * d2


@_law("joint_convexity", "Theorem 4.6", "inequality", _distributions(4, equal=True))
def _joint_convexity(i):
    k = i.params.k
    d1, d2 = _divergence_rows(i.p, i.q, k), _divergence_rows(i.p2, i.q2, k)
    lam = np.linspace(0.0, 1.0, 11)
    # the 11 mixtures of (p, p2) and of (q, q2), each trial's in turn
    mixed = _mix_rows(np.stack([i.p, i.q])[:, :, None], np.stack([i.p2, i.q2])[:, :, None],
                      lam[:, None])
    rhs = _divergence_rows(*mixed.reshape(2, -1, VECTOR), np.repeat(k, lam.size, axis=0))
    lhs = (1.0 - lam) * d1 + lam * d2  # written out: a wrong _mix_rows must not move both sides
    return lhs, rhs.reshape(lhs.shape)


@_law("information_monotonicity", "Theorem 4.7", "inequality", _channel_pairs)
def _information_monotonicity(i):
    wp, wq = (_push_rows(i.w, a) for a in (i.p, i.q))
    _check_rows(wp)
    _check_rows(wq)
    return _divergence_rows(i.p, i.q, i.params.k), _divergence_rows(wp, wq, i.params.k)


@_law("divergence_r_independence", "observed r-cancellation", "identity", _two_r(2))
def _divergence_r_independence(i):
    return tuple(_divergence_literal_rows(i.p, i.q, _Params(i.k, r), "pq") for r in (i.r1, i.r2))


@_law("definitional_equivalence", "Definition 4.1", "identity", _distributions(2))
def _definitional_equivalence(i):
    return tuple(_divergence_literal_rows(i.p, i.q, i.params, form) for form in ("pq", "qp"))


@_law("kl_limit", "KL limit", "inequality", _distributions(2, params=False), **{"k=r": _LIMIT_K})
def _kl_limit(i):
    ref = _kl_rows(i.p, i.q)
    return 1e-3 * (1.0 + ref), abs(_divergence_rows(i.p, i.q, _LIMIT_K) - ref)


# ---------------------------------------------------------------------------
# geometry properties


@_law("hessian_separability", "induced metric (off-diagonal vanishing)", "identity",
      _interior_points(_FD_CAP), tol=1e-8, step=1e-4)
def _hessian_separability(i):
    # The central mixed difference of a -> D(a || p) for each live pair, from
    # its four corners p +- h e_i +- h e_j summed whole by _divergence_rows,
    # the library's own sum: a kernel that couples cells fails here. The
    # off-diagonals are row-major: the n x n block's keep their order, (0, 1)
    # leads, and the zeros beyond the block never rank above it as worst.
    (pv,), h = _unit_at_zero(i.p), 1e-4  # the padding adds 0
    iu, ju = np.triu_indices(_FD_CAP, 1)
    at, pair = np.nonzero(ju < i.n)  # each trial's live pairs, in row-major order
    a, b = iu[pair], ju[pair]
    base = np.repeat(pv[at], 4, axis=0)
    corners = base.reshape(-1, 4, _FD_CAP).copy()
    rows, corner = np.arange(pair.size)[:, None], np.arange(4)
    corners[rows, corner, a[:, None]] += h * np.array([1.0, 1.0, -1.0, -1.0])
    corners[rows, corner, b[:, None]] += h * np.array([1.0, -1.0, 1.0, -1.0])
    k = np.repeat(i.params.k[at], 4, axis=0)
    d = _divergence_rows(corners.reshape(base.shape), base, k).reshape(-1, 4)
    hess = np.zeros((len(pv), _FD_CAP, _FD_CAP))
    hess[at, a, b] = hess[at, b, a] = (d[:, 0] - d[:, 1] - d[:, 2] + d[:, 3]) / (4.0 * h * h)
    return hess[:, ~np.eye(_FD_CAP, dtype=bool)], 0.0


@_law("metric_oracle_agreement", "induced metric (diagonal oracle)", "identity",
      _interior_points(_FD_CAP), tol=1e-5)
def _metric_oracle_agreement(i):
    (pv,) = _unit_at_zero(i.p)
    hess = _fd_hessian_rows(pv, i.n, i.params.k, 1e-4)
    g = _metric_rows(pv, i.params)
    live = np.arange(_FD_CAP) < i.n
    fd = np.where(live, np.diagonal(hess, axis1=1, axis2=2), g)  # the padding agrees exactly
    return fd, g, (fd - g) / g


@_law("metric_hessian_structure", "Theorem 5.1", "identity", _interior_points())
def _metric_hessian_structure(i):
    # The library's diagonal A / p against the second derivative of the
    # divergence term (a - a^{1-2k} p^{2k}) / 2k at a = p, written with
    # powers as (1-2k) p^{-2k-1} p^{2k}; the paper's form adds 4r / p.
    k, (pv,) = i.params.k, _unit_at_zero(i.p)
    lhs = np.hstack([_metric_rows(pv, i.params, c) for c in CONVENTIONS])
    derived = (1.0 - 2.0 * k) * pv ** (-2.0 * k - 1.0) * pv ** (2.0 * k)
    second = {"derived": derived, "paper": derived + 4.0 * i.params.r / pv}
    return lhs, np.hstack([second[c] for c in CONVENTIONS])


@_law("potential_curvature", "Theorem 5.1", "identity", _potential_points, tol=1e-6)
def _potential_curvature(i):
    # step balances truncation (h^2 / u^2) against roundoff (eps / h^2)
    u, h = i.u, 2e-4 * np.sqrt(i.u)
    lhs = []
    for conv in CONVENTIONS:
        a = metric_coefficient(i.params, conv)
        phi = functools.partial(hessian_potential, coeffs=PotentialCoefficients(a, i.c1, i.c2))
        fd = (phi(u + h) - 2.0 * phi(u) + phi(u - h)) / (h * h)
        lhs.append(fd / (a / u))
    return np.hstack(lhs), 1.0


@_law("metric_positive_definite", "induced metric (positive definiteness)", "inequality",
      _interior_points(uniform_at_0=True))
def _metric_positive_definite(i):
    return np.where(i.p > 0, _metric_rows(*_unit_at_zero(i.p), i.params), np.inf), 0.0


@_law("taylor_expansion", "induced metric (quadratic expansion)", "inequality",
      _interior_points(direction=True), delta=1e-2)
def _taylor_expansion(i):
    # Per coordinate f(a) = (a - a^{1-2k} p^{2k}) / (2k) has f(p) = 0, f' = 1,
    # f'' = (1-2k)/p, f^(3) = -(1-4k^2)/p^2, f^(4) = 2(1-4k^2)(1+k)/p^3 and
    # |f^(5)| <= (1-4k^2)(2k+2)(2k+3) min(p,a)^{-2k-4} p^{2k} between p and a.
    # So what D(a||p) leaves after its cubic expansion must match the quartic
    # term to within the fifth-order Lagrange bound: slack = 1 - error/bound.
    k, p, v = i.params.k, i.p, i.v
    a = p + v * (1e-2 / np.sqrt(_rowsum(v * v)))
    dp = a - p
    pv, av = _unit_at_zero(p, a)  # the padding adds 0
    c = 1.0 - 4.0 * k * k
    rest = (
        _divergence_rows(a, p, k) - _rowsum(dp) - 0.5 * _quadratic_rows(pv, dp, i.params)
        + c / 6.0 * _rowsum(dp**3 / pv**2)
    )
    quartic = c * (1.0 + k) / 12.0 * _rowsum(dp**4 / pv**3)
    bound = c * (2.0 * k + 2.0) * (2.0 * k + 3.0) / 120.0 * _rowsum(
        np.abs(dp) ** 5 * np.minimum(pv, av) ** (-2.0 * k - 4.0) * pv ** (2.0 * k)
    )
    err = abs(rest - quartic)
    return bound, err, 1.0 - err / bound
