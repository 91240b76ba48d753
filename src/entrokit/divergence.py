"""Generalized Tsallis relative entropy between distributions.

The divergence of P from Q is sum_x p (p/q)^{r-k} ln_{k,r}(p/q), whose
per-term closed form (p - p^{1-2k} q^{2k}) / (2k) is the canonical
evaluator: it is r-free, finite and exact at p = 0 without limit-taking,
and zero exactly when p = q termwise. P and Q may be of any rank, as long
as their shapes agree; the sum runs over cells. Every final reduction is
math.fsum's correctly rounded exact sum, so the value is independent of
coordinate order (permutation symmetry holds bit-exactly). A row of at
least _EXACT_MIN cells is evaluated and summed run by run: the terms of
one run of distributions._leaves (at most _LEAF cells) at a time, each
run sliced by error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci.
Comput. 31(1), 2008) into a few floats of the same exact sum before the
next is evaluated; a row holding a non-finite term or one of 2^1000 or
more goes to math.fsum as it is, run by run. A run
is a view of a C-contiguous input (every Distribution is one), or a copy
of that run alone, so the row never becomes a Python list and no array as
large as it is built: a sum allocates a few runs' worth (under 3 MiB)
beyond its inputs at any width; the result is still math.fsum's bit for
bit. mutual_divergence does not build the product of the marginals
either: its runs are made as the sum reads them, so it allocates under
2 MiB on a 1024 x 1024 joint. It builds the product only to name the
cell of its one error, at k < 0, where a product of marginals underflows
under p > 0.

Each sum is written once, as a batched `_*_rows` evaluator; the public
functions call it on a batch of one (whole arrays: fsum is exact), and the
property sweep on zero-padded batches, so it checks the sums users get.
Every divergence-type sum (divergence, its literal forms, KL and Tsallis)
gets its terms from _pair_terms, which states the rule for a cell with
p = 0 once; each kernel evaluates only the cells with p > 0.
The divergence and Tsallis terms are the family's evaluator at
t = ln q - ln p (deformed_log._family), so neither forms q/p; the literal
forms form it as written, and a cell where that is not finite takes the
evaluator's value.

p > 0 with q = 0 is rejected loudly rather than returned as infinity,
because downstream arithmetic (pseudo-additivity, convexity sweeps) would
silently propagate it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams, _deformed, _family, _finite_or
from .distributions import (
    _LEAF,
    Distribution,
    _as_float_array,
    _col,
    _real,
    _runs,
    _span,
    _typed,
    _whole,
    product,
)
from .errors import AbsoluteContinuityError, DimensionError, DomainError, ParamError

__all__ = [
    "DivergenceValue",
    "divergence",
    "divergence_literal",
    "log_sum_gap",
    "kl_divergence",
    "tsallis_divergence",
    "mutual_divergence",
]


@dataclass(frozen=True)
class DivergenceValue:
    """Divergence value with its parameters and support classification.

    support_flag is "full" when every cell of P is positive and "extended"
    when some are 0 (each then adds its limit, see _pair_terms).
    """

    value: float
    params: DeformParams
    support_flag: str

    def __float__(self) -> float:
        return self.value


def _positive_terms(p: np.ndarray, q: np.ndarray, b) -> np.ndarray:
    """p (1 - (q/p)^b) / b = (p - p^{1-b} q^b) / b per cell with p > 0: the
    family's evaluator with weight p at t = ln q - ln p, which never forms
    q/p. Exactly 0 wherever p == q bitwise; b is 2k for the divergence and
    1 - q for Tsallis, a scalar or broadcast against p."""
    return _family(p, 0.0, b, q, weighted=True)


# the DomainError of a cell with p = 0 < q where the term exponent b > 1
_DIVERGES = "divergence diverges for zero p-entries when k > 1/2 (Tsallis q < 0)"


def _check_pair(p: Distribution, q: Distribution, b) -> bool:
    """Require equal shapes, support(P) within support(Q) and, for a term
    exponent b > 1 (_pair_terms), no cell with p = 0 < q, where the sum
    diverges; returns whether every p > 0."""
    _typed(Distribution, p=p, q=q)
    if p.shape != q.shape:
        raise DimensionError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not q._positive:  # only then can a cell have p > 0 = q
        bad = (p.p > 0) & (q.p == 0)
        if np.any(bad):
            raise _continuity_error(p.p, int(np.argmax(bad)))
    if b > 1 and not p._positive and np.any((p.p == 0) & (q.p > 0)):
        raise DomainError(_DIVERGES)
    return p._positive


def _continuity_error(p: np.ndarray, flat: int) -> AbsoluteContinuityError:
    """The error for the cell at C-order position flat, where p > 0 = q."""
    i = np.unravel_index(flat, p.shape)
    at = ", ".join(map(str, i))
    return AbsoluteContinuityError(
        f"p[{at}] = {p[i]!r} > 0 but q[{at}] = 0; divergence is infinite"
    )


# Rows of this many cells or more are wide: evaluated run by run and
# sliced by _exact_parts. Below it, slicing's fixed numpy cost per run
# exceeds math.fsum on a list (one row of 512 cells: 42 against 31 us).
_EXACT_MIN = 1024
# The terms of a row of fewer than 2^23 cells, each below this, add up to
# less than 2^1023 in any order: math.fsum overflows neither on them nor on
# their slices, and sigma = 2^(e+17) stays below 2^1018.
_HUGE = 2.0**1000


def _unit_at_zero(p: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """p and arrays of its shape with 1.0 wherever p = 0, laid out as they
    are: there a term's ratio is 1 and its logarithm 0. A batch of wide rows
    in which every p > 0 gets the arrays themselves; a narrow batch (the
    sweep's, bound by per-call overhead) gets the copies without the test."""
    if p.size >= _EXACT_MIN * len(p) and p.min() > 0:
        return (p, *arrays)
    live = p > 0
    return tuple(np.where(live, a, 1.0) for a in (p, *arrays))


def _exact_parts(chunks, rows: int) -> list[list[float]] | None:
    """For each of `rows` rows, which the iterable chunks yields as (rows, m)
    arrays of at most 2^15 cells, one run each, in any order of the cells:
    floats whose math.fsum is the row's math.fsum of its terms. None, at the
    first run with a non-finite term or one of magnitude _HUGE or more: the
    rows' terms then go to math.fsum themselves. The chunks are overwritten.

    Each run is sliced by error-free extraction (Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31(1), 2008) until nothing is left: with 2^e above its
    largest |x| and sigma = 2^(e+17), q = (x + sigma) - sigma and x - q are
    exact, and each q is a multiple of ulp(sigma)/2 = 2^(e-36) no larger
    than 2^e, so float64 adds a run's at most 2^15 q exactly in any order.
    The remainder x - q is at most 2^(e-36), so each slice reaches at least
    35 binades lower than the last.
    """
    parts = [[] for _ in range(rows)]
    for chunk in chunks:
        for row, x in zip(parts, chunk):
            top = max(x.max(), -x.min())
            if not top < _HUGE:  # nan fails too
                return None
            while top:
                sigma = math.ldexp(1.0, math.frexp(top)[1] + 17)
                q = x + sigma - sigma
                row.append(float(q.sum()))
                x -= q
                top = max(x.max(), -x.min())
    return parts


def _sum_terms(terms, cells: tuple, *args) -> np.ndarray:
    """(T, 1) math.fsum of each row of terms(*cells, *args), values and
    exceptions alike: exact, so neither order nor zero cells move a bit.

    cells are equal-shaped batches (axis 0) of any rank, the first an array,
    taken as rows of cells in C order, or run makers (distributions._runs);
    args are scalars or (T, 1) columns, handed over as they are. terms works
    cell by cell, so it may get any range of cells of every row at once: it
    gets the runs of distributions._runs, and returns new arrays, which the
    sum may overwrite. A narrow row is summed as a list, its terms taken at
    once where it is one run (every sweep batch's); a wide one run by run,
    each run sliced before the next is made (_exact_parts), so no array as
    large as the row is built. Rows _exact_parts leaves go to math.fsum run
    by run, in order.
    """
    rows, width = len(cells[0]), math.prod(cells[0].shape[1:])

    def chunks():
        return (terms(*run, *args) for run in _runs(cells, width))

    parts = _exact_parts(chunks(), rows) if width >= _EXACT_MIN else None
    if parts is None:
        if width <= _LEAF:  # one run, without the walker
            parts = terms(*_whole(cells, width), *args).tolist()
        else:  # row i's own terms, run by run; map reads them before i moves on
            parts = ((t for run in chunks() for t in run[i].tolist()) for i in range(rows))
    return np.array(list(map(math.fsum, parts)))[:, np.newaxis]


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """(T, 1) math.fsum over every axis but the first."""
    return _sum_terms(np.copy, (a,))  # slicing overwrites its terms


def _pair_terms(p: np.ndarray, q: np.ndarray, b, kernel, *args) -> np.ndarray:
    """The terms of a divergence-type sum: kernel(p, q, *args), which
    evaluates cells with p > 0, and the one rule for a cell with p = 0. Such
    a term is (p - p^{1-b} q^b) / b, or its b -> 0 limit p ln(p/q), for the
    exponent b (2k for divergence and its literal forms, 1 - q for Tsallis,
    0 for KL; a scalar or a (T, 1) column): 0 for b < 1, -q at b = 1,
    divergent beyond (_check_pair). The kernel gets such a cell as a unit
    cell, p = q = 1, whose ratio is 1 and term 0."""
    pv, qv = _unit_at_zero(p, q)
    terms = kernel(pv, qv, *args)
    if pv is not p and np.any(b == 1):  # p may have cells = 0 < q
        terms = np.where((p == 0) & (b == 1), -q, terms)
    return terms


def _divergence_rows(p: np.ndarray, q, k) -> np.ndarray:
    """(T, 1) divergences D(p || q) of a batch (axis 0) of pairs of any rank,
    for a scalar k or one k per row, taken as _sum_terms takes them: q may
    be a run maker for a batch of one. A cell with p > 0 = q takes the
    term's q -> 0 limit, p / 2k, infinite for k < 0. Each batch is summed
    once, its terms formed by _positive_terms."""
    b = 2.0 * _col(k, 2)
    with np.errstate(divide="ignore"):  # log(0) is -inf: the q -> 0 limit
        return _sum_terms(_pair_terms, (p, q), b, _positive_terms, b)


def divergence(
    p: Distribution, q: Distribution, params: DeformParams
) -> DivergenceValue:
    """Relative entropy of P from Q; requires support(P) within support(Q).
    A cell with p = 0 < q adds 0 for k < 1/2 and -q at k = 1/2, where the
    closed form's p^{1-2k} factor is 1; beyond it the sum diverges, a
    DomainError."""
    _typed(DeformParams, params=params)
    full = _check_pair(p, q, 2.0 * params.k)
    value = float(_divergence_rows(p.p[np.newaxis], q.p[np.newaxis], params.k)[0, 0])
    return DivergenceValue(value, params, "full" if full else "extended")


def _literal_terms(p: np.ndarray, q: np.ndarray, params, form: str) -> np.ndarray:
    """The terms of divergence_literal's `form` at cells with p > 0, as
    written. A cell where that is not finite, where the ratio or its power
    overflows or their product is 0 * inf, takes the evaluator's value, the
    divergence term (_finite_or)."""

    def as_written(p, q, r, k):  # p (p/q)^{r-k} ln(p/q), or -p (q/p)^{r+k} ln(q/p)
        ratio, w, s = (p / q, p, r - k) if form == "pq" else (q / p, -p, r + k)
        return w * np.power(ratio, s) * _deformed(ratio, -(r + k), 2.0 * k, np.log)

    return _finite_or(as_written, lambda p, q, r, k: _positive_terms(p, q, 2.0 * k),
                      p, q, params.r, params.k)


def _divergence_literal_rows(p: np.ndarray, q: np.ndarray, params, form: str) -> np.ndarray:
    """(T, 1) divergence_literal sums of `form` over a batch of pairs; params
    are scalars or (T, 1) columns."""
    return _sum_terms(_pair_terms, (p, q), 2.0 * params.k, _literal_terms, params, form)


def divergence_literal(
    p: Distribution, q: Distribution, params: DeformParams, form: str = "pq"
) -> float:
    """The defining sum evaluated as written, for cross-checking.

    form "pq" is sum p (p/q)^{r-k} ln_{k,r}(p/q); form "qp" is the
    equivalent -sum p (q/p)^{r+k} ln_{k,r}(q/p). A cell with p = 0 < q
    adds the term's limit, as in divergence: 0 for k < 1/2 and -q at
    k = 1/2; beyond it the sum diverges, a DomainError.
    """
    if form not in ("pq", "qp"):
        raise ParamError(f'form must be "pq" or "qp", got {form!r}')
    _typed(DeformParams, params=params)
    _check_pair(p, q, 2.0 * params.k)
    return float(_divergence_literal_rows(p.p[np.newaxis], q.p[np.newaxis], params, form)[0, 0])


def _weights(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Equal-shaped, non-empty weights with finite entries > 0, as float arrays of rank >= 1."""
    av, bv = (np.atleast_1d(_as_float_array(w, "weight")) for w in (a, b))
    if av.shape != bv.shape:
        raise DimensionError(f"shape mismatch: {av.shape} vs {bv.shape}")
    if av.size == 0:
        raise DomainError("weights must be non-empty")
    if not np.all((av > 0) & (bv > 0) & np.isfinite(av) & np.isfinite(bv)):
        raise DomainError("entries must be finite and > 0")
    return av, bv


def _log_sum_rows(a: np.ndarray, b: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(T, 1) columns of both sides of the log-sum inequality over a batch of
    weight pairs: the termwise sum, and the term of the totals."""
    rhs = _positive_terms(_fsum_rows(a), _fsum_rows(b), 2.0 * _col(k, 2))
    return _divergence_rows(a, b, k), rhs


def log_sum_gap(a, b, params: DeformParams) -> tuple[float, float]:
    """Both sides of the generalized log-sum inequality.

    Returns (lhs, rhs) where lhs is the termwise sum and rhs the single
    term built from the totals; the inequality asserts lhs >= rhs.
    """
    _typed(DeformParams, params=params)
    av, bv = _weights(a, b)
    try:
        with np.errstate(over="raise"):
            lhs, rhs = _log_sum_rows(av[np.newaxis], bv[np.newaxis], params.k)
    except (OverflowError, FloatingPointError):  # fsum's, and numpy's
        raise DomainError("log_sum_gap overflows the float range on these weights") from None
    return float(lhs[0, 0]), float(rhs[0, 0])


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p ln(p/q) per cell with p > 0."""
    return p * (np.log(p) - np.log(q))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(T, 1) KL divergences sum p ln(p/q) in nats of a batch of pairs."""
    return _sum_terms(_pair_terms, (p, q), 0.0, _kl_terms)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats."""
    _check_pair(p, q, 0.0)
    return float(_kl_rows(p.p[np.newaxis], q.p[np.newaxis])[0, 0])


def tsallis_divergence(p: Distribution, q: Distribution, q_param: float) -> float:
    """Standard one-parameter relative entropy -sum p ln_q(q_x/p_x).

    A cell with p = 0 < q adds the term's limit, as divergence's do at
    2k = 1 - q: 0 for q > 0 and -q_x at q = 0; for q < 0 the sum diverges,
    a DomainError.
    """
    q_param = _real("q", q_param, "a finite real number", math.isfinite)
    if q_param == 1:
        raise ParamError("q = 1 is the KL limit; use kl_divergence")
    b = 1.0 - q_param
    _check_pair(p, q, b)
    cells = (p.p[np.newaxis], q.p[np.newaxis])  # each term is divergence's at 2k = b
    return float(_sum_terms(_pair_terms, cells, b, _positive_terms, b)[0, 0])


def _outer_run(px: np.ndarray, py: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Cells start .. stop - 1 of the C-ordered outer product of the vectors
    px and py, as a (1, stop - start) array: the products product() makes."""
    out = np.empty((1, stop - start))
    for s, e, index in _span((len(px), len(py)), start, stop):
        x, y = px[index[0]], py[index[1] if len(index) > 1 else slice(None)]
        np.multiply.outer(x, y, out=out[0, s - start : e - start].reshape(np.shape(x) + y.shape))
    return out


def mutual_divergence(j: Distribution, params: DeformParams) -> DivergenceValue:
    """Divergence of a 2-axis joint from the product of its marginals.

    Each run of the product's cells is made as the sum reads it
    (distributions._runs), so the product is never built whole. Its values
    and errors are divergence(j, product(...))'s, save where a product cell
    underflows to 0, as the exact product is positive there. Under p > 0
    such a cell takes the term's q -> 0 limit, p / 2k, infinite for k < 0,
    where the cell's AbsoluteContinuityError is raised. For k > 1/2, a cell
    with p = 0 inside the product's support, such a cell included, makes
    the sum diverge, a DomainError.
    """
    _typed(Distribution, j=j)
    _typed(DeformParams, params=params)
    if j.ndim != 2:
        raise DimensionError(f"mutual divergence needs a 2-axis joint, got {j.ndim} axes")
    mx, my = j.marginal(0), j.marginal(1)
    px, py = mx.p, my.p
    # the product's support is every (x, y) with px_x > 0 and py_y > 0
    if params.k > 0.5 and np.count_nonzero(j.p) < np.count_nonzero(px) * np.count_nonzero(py):
        raise DomainError(_DIVERGES)
    q = functools.partial(_outer_run, px, py)
    value = float(_divergence_rows(j.p[np.newaxis], q, params.k)[0, 0])
    if value == math.inf:  # only for k < 0: a product cell underflows under p > 0
        _check_pair(j, product(mx, my), 2.0 * params.k)
    return DivergenceValue(value, params, "full" if j._positive else "extended")
