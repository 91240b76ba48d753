"""Finite probability distributions of any rank, stochastic channels,
mixtures, and seeded random generation.

A Distribution is one validated probability array: a vector on the
simplex is the 1-axis case, and a joint of variables X, Y, Z, ... is the
array indexed (x, y, z, ...). All values are immutable after construction
(backing arrays are marked read-only) and re-validate their invariants on
construction. Sums are checked to an absolute tolerance of 1e-9 so data
can round-trip through decimal text formats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DimensionError, ParamError, ValidationError

__all__ = [
    "SUM_TOL",
    "Distribution",
    "Channel",
    "make_distribution",
    "make_joint2",
    "make_joint3",
    "make_channel",
    "product",
    "apply_channel",
    "mix",
    "sample_distribution",
    "sample_channel",
]

SUM_TOL = 1e-9


def _as_float_array(data, what: str) -> np.ndarray:
    """Numeric input as a float array: integers and floats convert; booleans,
    strings, bytes, objects and complex numbers raise ValidationError."""
    try:
        a = np.asarray(data)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric") from None
    if a.dtype == bool:
        raise ValidationError(f"{what} must be numeric, not boolean")
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numeric")
    return a.astype(float, copy=False)


def _freeze(a, what: str) -> np.ndarray:
    a = np.array(_as_float_array(a, what), ndmin=1)
    a.setflags(write=False)
    return a


def _check_nonneg(a: np.ndarray, what: str) -> None:
    if a.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} entries must be finite")
    if np.any(a < 0):
        raise ValidationError(f"{what} entries must be >= 0")


def _col(v, ndim: int) -> np.ndarray:
    """A scalar or one value per row, shaped to broadcast against a batch of ndim axes."""
    return np.reshape(v, (-1,) + (1,) * (ndim - 1))


def _rowsum(a: np.ndarray) -> np.ndarray:
    """(T, 1) sums over every axis but the first."""
    return a.reshape(len(a), -1).sum(axis=1, keepdims=True)


def _check_rows(p: np.ndarray) -> None:
    """A Distribution's checks on each row (axis 0) of a batch of probability
    arrays, in one pass over the batch."""
    _check_nonneg(p, "probability")
    totals = p.reshape(len(p), -1).sum(axis=1)
    bad = np.abs(totals - 1.0) > SUM_TOL
    if np.any(bad):
        raise ValidationError(f"probabilities sum to {float(totals[bad][0])!r}, expected 1")


@dataclass(frozen=True)
class Distribution:
    """Probability array of any rank >= 1: a vector on the simplex, or a
    joint distribution indexed (x, y, z, ...)."""

    p: np.ndarray

    def __post_init__(self):
        p = _freeze(self.p, "probability")
        _check_rows(p[np.newaxis])
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        """Number of cells; the support size of a vector."""
        return self.p.size

    @property
    def ndim(self) -> int:
        return self.p.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.p.shape

    def marginal(self, *axes: int) -> Distribution:
        """Marginal over the given axes (0=x, 1=y, 2=z, ...), in the order given."""
        try:
            axes = tuple(map(operator.index, axes))
        except TypeError:
            raise ParamError(f"axes must be integers, got {axes}") from None
        kept = sorted(axes)
        if not axes or len(set(axes)) != len(axes) or kept[0] < 0 or kept[-1] >= self.ndim:
            raise ParamError(f"axes must be distinct and in [0, {self.ndim}), got {axes}")
        m = self.p.sum(axis=tuple(a for a in range(self.ndim) if a not in kept))
        return Distribution(m.transpose([kept.index(a) for a in axes]))

    # Kept only because the frozen benchmark (perfbench/bulk.py) calls it;
    # ROADMAP item 1's benchmark change deletes it.
    def marginal_x(self) -> Distribution:
        """The marginal over axis 0, i.e. marginal(0)."""
        return self.marginal(0)


@dataclass(frozen=True)
class Channel:
    """Column-stochastic transition matrix with shape (outputs m, inputs n).

    Column i is the output distribution given input i.
    """

    w: np.ndarray

    def __post_init__(self):
        w = _freeze(self.w, "transition probability")
        if w.ndim != 2:
            raise ValidationError("channel must be a 2-d matrix")
        _check_nonneg(w, "transition probability")
        colsums = w.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > SUM_TOL):
            bad = int(np.argmax(np.abs(colsums - 1.0)))
            raise ValidationError(
                f"channel column {bad} sums to {float(colsums[bad])!r}, expected 1"
            )
        object.__setattr__(self, "w", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


def _make(data, normalize: bool, ndim: int, what: str) -> Distribution:
    a = _as_float_array(data, what)
    if a.ndim != ndim:
        raise ValidationError(f"{what}s must be a {ndim}-d array, got {a.ndim}-d")
    if normalize:
        _check_nonneg(a, what)
        total = a.sum()
        if total <= 0:
            raise ValidationError(f"cannot normalize all-zero {what}s")
        a = a / total
    return Distribution(a)


def make_distribution(weights, normalize: bool = False) -> Distribution:
    """Build a probability vector from non-negative weights.

    With normalize=True the weights are divided by their sum; otherwise
    they must already sum to 1 within 1e-9.
    """
    return _make(weights, normalize, 1, "weight")


def make_joint2(matrix, normalize: bool = False) -> Distribution:
    """Build a joint of two variables from a weight matrix indexed (x, y)."""
    return _make(matrix, normalize, 2, "joint weight")


def make_joint3(tensor, normalize: bool = False) -> Distribution:
    """Build a joint of three variables from a weight tensor indexed (x, y, z)."""
    return _make(tensor, normalize, 3, "joint weight")


def make_channel(matrix, normalize: bool = False) -> Channel:
    """Build a Channel; with normalize=True each column is rescaled to sum 1."""
    a = _as_float_array(matrix, "transition weight")
    if a.ndim != 2:
        raise ValidationError("channel weights must be a 2-d matrix")
    _check_nonneg(a, "transition weight")
    if normalize:
        colsums = a.sum(axis=0)
        if np.any(colsums <= 0):
            raise ValidationError("cannot normalize a channel with an all-zero column")
        a = a / colsums
    return Channel(a)


def product(p: Distribution, q: Distribution) -> Distribution:
    """Independent joint with entries p_x * q_y: the outer product, whose
    axes are those of p followed by those of q."""
    return Distribution(np.multiply.outer(p.p, q.p))


def apply_channel(w: Channel, p: Distribution) -> Distribution:
    """Push a distribution through a channel: out_j = sum_i w_{j,i} p_i."""
    m, n = w.shape
    if p.shape != (n,):
        raise DimensionError(f"channel expects {n} inputs, distribution has shape {p.shape}")
    return Distribution(w.w @ p.p)


def mix(p1: Distribution, p2: Distribution, lam: float) -> Distribution:
    """Convex combination (1 - lam) * p1 + lam * p2."""
    if p1.shape != p2.shape:
        raise DimensionError(f"shape mismatch: {p1.shape} vs {p2.shape}")
    if isinstance(lam, bool) or not (isinstance(lam, Real) and 0.0 <= lam <= 1.0):
        raise ParamError(f"lambda must be a real number in [0, 1], got {lam!r}")
    return Distribution((1.0 - lam) * p1.p + lam * p2.p)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ParamError(f"seed must be an integer, got {seed!r}") from None
    if not (0 <= seed < 2**64):
        raise ParamError("seed must be a 64-bit unsigned integer")
    return np.random.default_rng(seed)


def _sizes(dims) -> tuple[int, ...]:
    """Support sizes as ints >= 1, else ParamError."""
    try:
        dims = tuple(map(operator.index, dims))
    except TypeError:
        raise ParamError(f"support sizes must be integers, got {dims!r}") from None
    if min(dims, default=0) < 1:
        raise ParamError(f"support sizes must be >= 1, got {dims!r}")
    return dims


def _simplex_point(rng: np.random.Generator, shape) -> np.ndarray:
    # normalized i.i.d. exponentials = flat Dirichlet = uniform on the simplex
    e = rng.exponential(size=shape)
    return e / e.sum()


def sample_distribution(shape, seed) -> Distribution:
    """Uniform random point on the simplex of the given shape (an int for a
    vector, a tuple for a joint), deterministic for a fixed seed."""
    dims = _sizes(shape if np.iterable(shape) else (shape,))
    return Distribution(_simplex_point(_rng(seed), dims))


def sample_channel(m: int, n: int, seed) -> Channel:
    """Random column-stochastic matrix, one simplex point per column."""
    m, n = _sizes((m, n))
    rng = _rng(seed)
    cols = np.column_stack([_simplex_point(rng, m) for _ in range(n)])
    return Channel(cols)
