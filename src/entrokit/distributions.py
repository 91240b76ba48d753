"""Finite probability distributions of any rank, stochastic channels,
mixtures, and seeded random generation.

A Distribution is one validated probability array: a vector on the
simplex is the 1-axis case, and a joint of variables X, Y, Z, ... is the
array indexed (x, y, z, ...). All values are immutable after construction
(backing arrays are marked read-only). Data are checked once, where they
enter: the constructors, make_*, make_channel, io.read and the samplers'
arguments. One check, _check_rows, serves both kinds of array: it takes
a batch of arrays as rows, a Distribution being a batch of one and a
Channel's columns the rows of w.T. Entries must be finite and >= 0, and
sums 1 within an absolute 1e-9, so data can round-trip through decimal
text formats; a sum that overflows is inf, which fails, not a warning.
One normalizer, _normalized, serves make_*(normalize=True) and
make_channel. What the library builds from checked data (product,
marginal, mix, apply_channel, a normalized copy and both samplers'
draws) is built by _derived without a second check, which could only
reject rounding: the sum error of a product is the sum of its factors',
and a normalized cell is rounded once.

A caller's C-ordered array is copied and checked in one pass, one block
of at most _LEAF cells at a time: each block is copied, and its minimum
and sum are taken while it is in cache. Cells >= 0 that sum to 1 within
SUM_TOL are finite (a +inf makes the sum inf), so the largest cell is
looked at only to name the fault of an array that fails. The sum is numpy's
pairwise np.sum bit for bit (_pairwise adds the block sums in numpy's
tree), so no check moves; beyond its copy a Distribution allocates a few
small objects. Any other layout is copied once into C order, then checked.
So every Distribution and Channel holds a C-contiguous array, and each sum
over one runs in one order, whatever the caller's layout. A Distribution
remembers whether every cell is > 0, which spares divergence's continuity
scan, entropy's removal of zero cells and the metric's full-support test.

The rules for scalar arguments are written here once for every module:
_real for real numbers, _integer and _integers for integers and _seed for
seeds. None of them takes a bool for a number.
"""

from __future__ import annotations

import functools
import math
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

# Cells per block of every streamed pass over a large array, and the longest
# run a pairwise sum adds in one np.sum call: a block's terms and buffers
# stay in L2 (2^15 to 2^16 cells measured best). A sum of terms keeps up to
# three temporaries of a run at once (entropy_literal: a power, and ln_kr's
# output and logarithm), which stay under 1 MiB.
_LEAF = 1 << 15

# Columns per piece in which _copy_run copies a box of several rows: a
# 1024 x 1024 Fortran array is copied to C order in 12.3 ms whole and in
# 2.7 ms in pieces of 64 columns, and the 32-row blocks of X_given_Y on a
# 1024 x 1024 joint in 9.9-10.7 ms whole against 2.9-3.8 ms in pieces of
# 64 (best of 16 to 1024 columns; 2 vCPU).
_TILE = 64


def _leaves(n: int, start: int = 0):
    """The runs (start, stop) of at most _LEAF cells, in order, into which
    numpy's pairwise sum of n contiguous cells from start splits them: it
    halves a run, cutting at a multiple of 8 cells, until the run is short
    (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    if n <= _LEAF:
        yield start, start + n
        return
    half = n // 2 - n // 2 % 8
    yield from _leaves(half, start)
    yield from _leaves(n - half, start + half)


def _pairwise(sums, n: int):
    """np.sum's value of n contiguous cells bit for bit, from the np.sum of
    each run of _leaves(n), taken in order from the iterator sums: the runs
    are added in numpy's tree. Values may be (T,) arrays, one per row."""
    if n <= _LEAF:
        return next(sums)
    half = n // 2 - n // 2 % 8
    return _pairwise(sums, half) + _pairwise(sums, n - half)


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


def _real(name: str, value, what: str, ok, error=ParamError) -> float:
    """A real number, not a bool, as a float that ok accepts; else error,
    "<name> must be <what>, got <value>"."""
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the floats
        x = math.nan
    if not ok(x):  # every ok rejects nan
        raise error(f"{name} must be {what}, got {value!r}")
    return x


def _index(value) -> int:
    """operator.index of an integer that is not a bool; else TypeError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError
    return operator.index(value)


def _integer(name: str, value, error=ParamError) -> int:
    """An integer, not a bool, as an int; else error, "<name> must be an
    integer, got <value>"."""
    try:
        return _index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _flag(name: str, value, error=ParamError) -> bool:
    """A bool or a numpy bool as a bool; else error, "<name> must be True or
    False, got <value>". No other value stands for one, not 0, 1 or "no"."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _integers(name: str, values, error=ParamError) -> tuple[int, ...]:
    """Integers, none a bool, as a tuple of ints; else error, "<name> must be
    integers, got <values>"."""
    try:
        return tuple(map(_index, values))
    except TypeError:
        raise error(f"{name} must be integers, got {values!r}") from None


def _seed(value, error=ParamError) -> int:
    """A seed as an int in [0, 2^64); else error."""
    seed = _integer("seed", value, error)
    if not 0 <= seed < 2**64:
        raise error("seed must be a 64-bit unsigned integer")
    return seed


def _c_copy(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of the array a, of rank >= 1: it shares no memory
    with a. Any other layout is copied in tiles (_copy_run), several times
    faster than np.array."""
    a = np.atleast_1d(a)
    if a.flags.c_contiguous:
        return np.array(a)
    return _copy_run(a[np.newaxis], 0, a.size).reshape(a.shape)


def _freeze(a, what: str) -> np.ndarray:
    """A read-only, C-ordered float copy of a, of rank >= 1 (_c_copy)."""
    a = _c_copy(_as_float_array(a, what))
    a.setflags(write=False)
    return a


def _check_nonneg(a: np.ndarray, what: str):
    """The smallest entry of a, which must be non-empty, finite and >= 0."""
    if a.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    lo, hi = a.min(), a.max()  # nan makes both nan
    if not (-math.inf < lo and hi < math.inf):
        raise ValidationError(f"{what} entries must be finite")
    if lo < 0:
        raise ValidationError(f"{what} entries must be >= 0")
    return lo


def _col(v, ndim: int) -> np.ndarray:
    """A scalar or one value per row, shaped to broadcast against a batch of ndim axes."""
    return np.asarray(v).reshape((-1,) + (1,) * (ndim - 1))


def _copy_run(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """A contiguous (T, stop - start) copy of cells start .. stop - 1 of
    each row (axis 0) of a batch a, in C order, made box by box, and a box
    of several rows _TILE columns at a time: a transposed read then reuses
    the pages and cache lines of those columns across the rows."""
    out = np.empty((len(a), stop - start))
    for s, e, index in _span(a.shape[1:], start, stop):
        box = a[(slice(None), *index)]
        dst = out[:, s - start : e - start].reshape(box.shape)
        step = _TILE if box.size > box.shape[-1] else box.shape[-1]
        for c in range(0, box.shape[-1], step):
            dst[..., c : c + step] = box[..., c : c + step]
    return out


def _span(shape: tuple[int, ...], start: int, stop: int):
    """(start, stop, index) of the few boxes that tile flat positions
    start .. stop - 1 of the C-ordered grid `shape`, in order: index
    (integers, then one slice) selects each."""
    inner = math.prod(shape[1:])
    if inner == 1:
        yield start, stop, (slice(start, stop),)
        return
    (r0, c0), (r1, c1) = divmod(start, inner), divmod(stop, inner)
    if r0 == r1:
        yield from _in_row(shape, r0, c0, c1)
        return
    if c0:
        yield from _in_row(shape, r0, c0, inner)
        r0 += 1
    if r0 < r1:
        yield r0 * inner, r1 * inner, (slice(r0, r1),)
    if c1:
        yield from _in_row(shape, r1, 0, c1)


def _in_row(shape: tuple[int, ...], r: int, start: int, stop: int):
    """_span of positions start .. stop - 1 within row r of the grid shape."""
    inner = math.prod(shape[1:])
    for s, e, index in _span(shape[1:], start, stop):
        yield r * inner + s, r * inner + e, (r, *index)


def _tiles(shape: tuple[int, ...], size: int):
    """(start, stop, index) of boxes of at most `size` >= 1 cells that tile
    the C-ordered grid `shape` in order: the _span of each run of `size`."""
    n = math.prod(shape)
    for start in range(0, n, size):
        yield from _span(shape, start, min(start + size, n))


def _cells(a: np.ndarray):
    """A function (start, stop) -> cells start .. stop - 1 of each row (axis
    0) of the batch a in C order, as a (T, stop - start) array: a view of a
    C-contiguous a, else a copy of those cells alone."""
    if a.flags.c_contiguous:
        rows = a.reshape(len(a), -1)
        return lambda start, stop: rows[:, start:stop]
    return functools.partial(_copy_run, a)


def _whole(batches: tuple, n: int) -> tuple:
    """The n cells of each row (axis 0) of equal-shaped batches as (T, n)
    arrays: the one run of _runs when n <= _LEAF."""
    return tuple(a(0, n) if callable(a) else a.reshape(len(a), n) for a in batches)


def _runs(batches: tuple, n: int):
    """The n cells of each row (axis 0) of equal-shaped batches in C order,
    as one tuple of (T, m) arrays per run: the whole rows when n <= _LEAF
    (_whole), else the runs of _leaves(n). A batch is an array, whose whole
    rows are reshaped and whose runs are views of a C-contiguous batch or
    copies of its cells alone (_cells), or a run maker (start, stop) -> (T,
    stop - start) array, as _cells returns."""
    if n <= _LEAF:
        yield _whole(batches, n)
        return
    cells = [a if callable(a) else _cells(a) for a in batches]
    for start, stop in _leaves(n):
        yield tuple(c(start, stop) for c in cells)


def _rowsum(a: np.ndarray, terms=None, *args) -> np.ndarray:
    """(T, 1) sums over every axis but the first of a batch a, or of
    terms(a, *args), bit for bit as np.sum adds each row in C order. terms
    works cell by cell on a (T, cells) array; args are scalars or (T, 1)
    columns. A row of more than _LEAF cells is evaluated and summed one run
    at a time (_runs), in numpy's pairwise tree, so no array as large as
    the row is built; a row of at most _LEAF cells is one run, summed
    without the walker."""
    n = math.prod(a.shape[1:])
    if n <= _LEAF:
        run = a.reshape(len(a), n)
        return (run if terms is None else terms(run, *args)).sum(axis=1)[:, np.newaxis]
    sums = ((run if terms is None else terms(run, *args)).sum(axis=1) for run, in _runs((a,), n))
    return _pairwise(sums, n)[:, np.newaxis]


def _simplex_rows(e: np.ndarray) -> np.ndarray:
    """Each row (axis 0) of the batch e divided by its _rowsum: normalized
    i.i.d. exponentials are a flat Dirichlet draw, a uniform point of the
    simplex."""
    return e / _col(_rowsum(e), e.ndim)


def _marginal_rows(j: np.ndarray, axes) -> np.ndarray:
    """A batch of joints (axis a + 1 is variable a) with every variable but
    `axes` summed out, and those in the order named: a view of j or of its
    sum."""
    kept = sorted(axes)
    rest = tuple(a + 1 for a in range(j.ndim - 1) if a not in kept)
    t = j.sum(axis=rest) if rest else j
    return t.transpose([0] + [kept.index(a) + 1 for a in axes])


def _check_rows(p: np.ndarray, what: str = "probability",
                off: str = "probabilities sum to {total!r}, expected 1"):
    """The one check of probability data: each row (axis 0) of the batch p
    must be non-empty, finite and >= 0 and sum to 1 within SUM_TOL, else
    ValidationError, which names the entries `what` and the row whose sum
    is furthest off by the template off; returns the batch's smallest
    entry. Its minimum and row sums decide: entries >= 0 whose rows sum to
    1 are finite, so the fuller _check_nonneg runs only to name the fault
    of a batch that fails. np.sum adds each row as it lies in memory, in
    a view of a C-contiguous batch or of w.T, and a sum that overflows is
    inf, which fails, not a warning."""
    lo = p.min() if p.size else math.nan  # nan makes it nan
    if not lo >= 0:
        _check_nonneg(p, what)  # raises: empty, nan, -inf or < 0
    with np.errstate(over="ignore"):
        totals = p.reshape(len(p), -1).sum(axis=1)
    error = np.abs(totals - 1.0)
    if not error.max() <= SUM_TOL:
        _check_nonneg(p, what)  # raises for +inf, whose row sums to inf
        row = int(np.argmax(error))
        raise ValidationError(off.format(row=row, total=float(totals[row])))
    return lo


def _check_columns(w: np.ndarray, what: str):
    """_check_rows of the columns of a channel's 2-d array w, the rows of w.T."""
    return _check_rows(w.T, what, "channel column {row} sums to {total!r}, expected 1")


def _copy_checked(a: np.ndarray) -> tuple[np.ndarray, object]:
    """A read-only copy of the C-contiguous, non-empty a and its smallest
    entry, checked as _check_rows checks it, in one pass of blocks: each run
    of _leaves is copied, then its min and np.sum are taken in cache."""
    p = np.empty_like(a)
    src, dst = a.reshape(-1), p.reshape(-1)
    lo, bad = math.inf, False

    def run_sum(start, stop):
        nonlocal lo, bad
        run = dst[start:stop]
        run[...] = src[start:stop]
        least = run.min()
        bad = bad or not 0 <= least  # nan fails too
        lo = min(lo, least)
        return run.sum()

    with np.errstate(over="ignore"):  # an overflowing sum is inf, which fails
        total = _pairwise((run_sum(*run) for run in _leaves(p.size)), p.size)
    if bad or not abs(total - 1.0) <= SUM_TOL:  # +inf makes the total inf
        _check_rows(p[np.newaxis])  # raises the check's own message
    p.setflags(write=False)
    return p, lo


@dataclass(frozen=True)
class Distribution:
    """Probability array of any rank >= 1: a vector on the simplex, or a
    joint distribution indexed (x, y, z, ...)."""

    p: np.ndarray

    def __post_init__(self):
        a = _as_float_array(self.p, "probability")
        if a.ndim and a.size and a.flags.c_contiguous:
            self._seal(*_copy_checked(a))
        else:
            self._seal(_freeze(a, "probability"))

    def _seal(self, p: np.ndarray, lo=None) -> None:
        """Check the read-only array p, unless its checked smallest entry lo
        is given, and make it this distribution's."""
        if lo is None:
            lo = _check_rows(p[np.newaxis])
        object.__setattr__(self, "p", p)
        # every cell > 0: the kernels skip their masks and zero tests
        object.__setattr__(self, "_positive", bool(lo > 0))

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
        """Marginal over the given axes (0=x, 1=y, 2=z, ...), in the order
        given: _marginal_rows on a batch of one, copied to C order."""
        axes = _integers("axes", axes)
        if not axes or len(set(axes)) != len(axes) or min(axes) < 0 or max(axes) >= self.ndim:
            raise ParamError(f"axes must be distinct and in [0, {self.ndim}), got {axes}")
        return _derived(_c_copy(_marginal_rows(self.p[np.newaxis], axes)[0]))

    # Kept only because the frozen benchmark (perfbench/bulk.py) calls it;
    # ROADMAP item 4's benchmark change deletes it.
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
        self._seal(_freeze(self.w, "transition probability"))

    def _seal(self, w: np.ndarray, lo=None) -> None:
        """Check the read-only array w, unless its checked smallest entry lo
        is given, and make it this channel's."""
        if lo is None:
            if w.ndim != 2:
                raise ValidationError("channel must be a 2-d matrix")
            _check_columns(w, "transition probability")
        object.__setattr__(self, "w", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


def _derived(a: np.ndarray, cls=Distribution, lo=None):
    """A Distribution or Channel (cls) of a C-ordered float array of rank
    >= 1 that the library has just built from checked data and no caller
    holds: frozen in place, not copied, and not checked again, which could
    only reject rounding. lo, its smallest entry, taken unless given, sets
    a Distribution's positivity flag (_seal)."""
    a.setflags(write=False)
    obj = object.__new__(cls)
    obj._seal(a, a.min() if lo is None else lo)
    return obj


def _normalized(a: np.ndarray, axis, what: str, zero: str, over: str) -> np.ndarray:
    """A C-ordered copy of the weights a, named `what`, divided by their
    sum (axis None) or by each column's (axis 0). a must be non-empty,
    finite and >= 0, and no sum 0 ("cannot normalize <zero>") or overflowing
    ("cannot normalize <over>"). Each cell is rounded once, so the sums of
    the copy are 1 within a few ulps: it is built without a second check."""
    _check_nonneg(a, what)
    a = _c_copy(a)  # summed in C order, whatever the caller's layout
    with np.errstate(over="ignore"):
        sums = a.sum(axis=axis)
    if np.any(sums <= 0):
        raise ValidationError(f"cannot normalize {zero}")
    if np.any(sums == math.inf):
        raise ValidationError(f"cannot normalize {over}")
    a /= sums
    return a


def _make(data, normalize: bool, ndim: int, what: str) -> Distribution:
    normalize = _flag("normalize", normalize, ValidationError)
    a = _as_float_array(data, what)
    if a.ndim != ndim:
        raise ValidationError(f"{what}s must be a {ndim}-d array, got {a.ndim}-d")
    if normalize:
        return _derived(_normalized(a, None, what, f"all-zero {what}s",
                                    f"{what}s whose sum overflows"))
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
    normalize = _flag("normalize", normalize, ValidationError)
    a = _as_float_array(matrix, "transition weight")
    if a.ndim != 2:
        raise ValidationError("channel weights must be a 2-d matrix")
    if normalize:
        return _derived(_normalized(a, 0, "transition weight", "a channel with an all-zero column",
                                    "a channel with a column whose sum overflows"), Channel)
    w = _c_copy(a)
    return _derived(w, Channel, _check_columns(w, "transition weight"))


def _typed(cls, **values) -> None:
    """Raise, naming the keyword and the type it got, unless each keyword's
    value is an instance of cls: the class's _type_error where it sets one
    (ParamError for DeformParams), else ValidationError (a Distribution or
    a Channel)."""
    for name, value in values.items():
        if not isinstance(value, cls):
            error = getattr(cls, "_type_error", ValidationError)
            raise error(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(T, *A, *B) outer products of each row (axis 0) of the batches a, of
    shape (T, *A), and b, of shape (T, *B), in a new C-ordered array: each
    cell is a_x * b_y, as np.multiply.outer makes it."""
    return (a.reshape(len(a), -1, 1) * b.reshape(len(b), 1, -1)).reshape(a.shape + b.shape[1:])


def product(p: Distribution, q: Distribution) -> Distribution:
    """Independent joint with entries p_x * q_y: the outer product, whose
    axes are those of p followed by those of q. This is _outer_rows on a
    batch of one."""
    _typed(Distribution, p=p, q=q)
    return _derived(_outer_rows(p.p[np.newaxis], q.p[np.newaxis])[0])


def _push_rows(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(T, m) pushes of the (T, n) rows p through the (T, m, n) channels w:
    out_j = sum_i w_{j,i} p_i, by one stacked matmul, whose every row has
    the bits of w @ p alone."""
    return np.matmul(w, p[..., np.newaxis])[..., 0]


def apply_channel(w: Channel, p: Distribution) -> Distribution:
    """Push a distribution through a channel: out_j = sum_i w_{j,i} p_i.
    This is _push_rows on a batch of one."""
    _typed(Channel, w=w)
    _typed(Distribution, p=p)
    m, n = w.shape
    if p.shape != (n,):
        raise DimensionError(f"channel expects {n} inputs, distribution has shape {p.shape}")
    return _derived(_push_rows(w.w[np.newaxis], p.p[np.newaxis])[0])


def _mix_rows(a: np.ndarray, b: np.ndarray, lam) -> np.ndarray:
    """(1 - lam) * a + lam * b of batches a and b, with lam a scalar or an
    array that broadcasts against them."""
    return (1.0 - lam) * a + lam * b


def mix(p1: Distribution, p2: Distribution, lam: float) -> Distribution:
    """Convex combination (1 - lam) * p1 + lam * p2 (_mix_rows)."""
    _typed(Distribution, p1=p1, p2=p2)
    if p1.shape != p2.shape:
        raise DimensionError(f"shape mismatch: {p1.shape} vs {p2.shape}")
    lam = _real("lambda", lam, "a real number in [0, 1]", lambda x: 0.0 <= x <= 1.0)
    return _derived(_mix_rows(p1.p, p2.p, lam))


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_seed(seed))


def _sizes(dims) -> tuple[int, ...]:
    """Support sizes as ints >= 1 whose float64 array numpy can index, else
    ParamError."""
    sizes = _integers("support sizes", dims)
    if min(sizes, default=0) < 1:
        raise ParamError(f"support sizes must be >= 1, got {sizes!r}")
    if math.prod(sizes) * 8 > np.iinfo(np.intp).max:
        raise ParamError(f"support sizes {sizes!r} make an array too large to address")
    return sizes


def sample_distribution(shape, seed) -> Distribution:
    """Uniform random point on the simplex of the given shape (an int for a
    vector, a tuple for a joint), deterministic for a fixed seed: one
    _simplex_rows draw on a batch of one."""
    dims = _sizes(shape if np.iterable(shape) else (shape,))
    return _derived(_simplex_rows(_rng(seed).exponential(size=(1, *dims)))[0])


def sample_channel(m: int, n: int, seed) -> Channel:
    """Random column-stochastic matrix, one simplex point per column: the
    n columns are one (n, m) _simplex_rows draw, transposed."""
    m, n = _sizes((m, n))
    return _derived(_c_copy(_simplex_rows(_rng(seed).exponential(size=(n, m))).T), Channel)
