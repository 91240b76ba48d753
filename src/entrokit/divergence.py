"""Generalized Tsallis relative entropy between distributions.

The divergence of P from Q is sum_x p (p/q)^{r-k} ln_{k,r}(p/q), whose
per-term closed form (p - p^{1-2k} q^{2k}) / (2k) is the canonical
evaluator: it is r-free, finite and exact at p = 0 without limit-taking,
and zero exactly when p = q termwise. P and Q may be of any rank, as long
as their shapes agree; the sum runs over cells. Every final reduction is
math.fsum's correctly rounded exact sum, so the value is independent of
coordinate order (permutation symmetry holds bit-exactly). A row of at
least _EXACT_MIN cells is first reduced exactly by binary exponent in
numpy, as in Neal's small superaccumulator (arXiv:1505.05571), so it never
becomes a Python list; the result is still math.fsum's bit for bit.

Each sum is written once, as a batched `_*_rows` evaluator; the public
functions call it on a batch of one (whole arrays: fsum is exact), and the
property sweep on zero-padded batches, so it checks the sums users get.

p > 0 with q = 0 is rejected loudly rather than returned as infinity,
because downstream arithmetic (pseudo-additivity, convexity sweeps) would
silently propagate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams, _finite_real, ln_kr, ln_q
from .distributions import Distribution, _as_float_array, _col, product
from .errors import AbsoluteContinuityError, DimensionError, DomainError, ParamError

__all__ = [
    "DivergenceValue",
    "divergence",
    "divergence_literal",
    "divergence_sum",
    "log_sum_gap",
    "kl_divergence",
    "tsallis_divergence",
    "mutual_divergence",
]


@dataclass(frozen=True)
class DivergenceValue:
    """Divergence value with its parameters and support classification.

    support_flag is "full" when both inputs are strictly positive and
    "extended" when matched zero coordinates were skipped.
    """

    value: float
    params: DeformParams
    support_flag: str

    def __float__(self) -> float:
        return self.value


def _positive_terms(p: np.ndarray, q: np.ndarray, k: float) -> np.ndarray:
    # p (1 - (q/p)^{2k}) / (2k) == (p - p^{1-2k} q^{2k}) / (2k), via expm1
    # so the value is exactly 0 wherever p == q bitwise; in place in one buffer
    t = np.log(q) - np.log(p)
    t *= 2.0 * k
    np.expm1(t, out=t)
    t *= p
    t /= -2.0 * k
    return t


def _check_pair(p: Distribution, q: Distribution) -> np.ndarray:
    """Require equal shapes and support(P) within support(Q); returns the
    mask of p > 0."""
    if p.shape != q.shape:
        raise DimensionError(f"shape mismatch: {p.shape} vs {q.shape}")
    p_pos = p.p > 0
    bad = p_pos & (q.p == 0)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        at = ", ".join(map(str, i))
        raise AbsoluteContinuityError(
            f"p[{at}] = {p.p[i]!r} > 0 but q[{at}] = 0; divergence is infinite"
        )
    return p_pos


# Rows this wide are reduced by binary exponent first: below it, the
# bucket pass's fixed numpy cost exceeds math.fsum on a list.
_EXACT_MIN = 1024
# Cells per bucket pass. A bucket then sums at most 2^16 halves below 2^27,
# far below 2^53 (at most 2^26 cells would do), so float64 adds them exactly,
# and a pass's buffers stay in cache.
_EXACT_CHUNK = 1 << 16


def _exact_parts(row: np.ndarray) -> list[float]:
    """Floats whose math.fsum is math.fsum(row), values and exceptions alike.

    Each cell x = m 2^e (np.frexp) is exactly (h + l) 2^(e-27), where
    h = trunc(m 2^27) is an integer below 2^27 and l = m 2^27 - h a multiple
    of 2^-26 below 1. Per chunk and exponent, float64 sums the h and the l
    exactly, and scaling each sum back by 2^(e-27) is exact too. A row with a
    non-finite cell, or so large that math.fsum could overflow on the way
    (about W max|x| >= 2^1020), is handed over as it is.
    """
    bound = math.ldexp(1.0, 1020 - len(row).bit_length())
    if not (-bound < row.min() and row.max() < bound):  # nan fails too
        return row.tolist()
    parts = []
    for c in range(0, len(row), _EXACT_CHUNK):
        m, e = np.frexp(row[c : c + _EXACT_CHUNK])
        low = int(e.min())
        e -= low  # bucket index: exponent above the chunk's lowest
        m *= 2.0**27
        h = np.trunc(m)
        m -= h
        for half in (h, m):
            s = np.bincount(e, half)
            at = np.flatnonzero(s)
            parts += np.ldexp(s[at], at + (low - 27)).tolist()
    if not parts and np.signbit(row).all():
        return [-0.0]  # only -0.0 cells: whatever sign math.fsum gives them
    return parts


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """(T, 1) math.fsum over every axis but the first: exact, so neither
    order nor zero cells move a bit. Rows of at least _EXACT_MIN cells are
    first reduced exactly to a few partials per binary exponent."""
    rows = a.reshape(len(a), -1)
    terms = rows.tolist() if rows.shape[1] < _EXACT_MIN else map(_exact_parts, rows)
    return np.array([math.fsum(t) for t in terms])[:, np.newaxis]


def _divergence_rows(p: np.ndarray, q: np.ndarray, k) -> np.ndarray:
    """(T, 1) divergences D(p || q) of a batch (axis 0) of pairs of any rank
    with q > 0 where p > 0, for a scalar k or one k per row. A cell with
    p = 0 adds 0, or -q at k = 1/2, where p^{1-2k} q^{2k} is q."""
    k = _col(k, p.ndim)
    live = p > 0
    terms = _positive_terms(np.where(live, p, 1.0), np.where(live, q, 1.0), k)
    if (k == 0.5).any():
        terms = np.where(~live & (k == 0.5), -q, terms)
    return _fsum_rows(terms)


def divergence(
    p: Distribution, q: Distribution, params: DeformParams
) -> DivergenceValue:
    """Relative entropy of P from Q; requires support(P) within support(Q)."""
    p_pos = _check_pair(p, q)
    # p = 0 < q: the closed form's p^{1-2k} factor kills the term for
    # k < 1/2, leaves -q at the k = 1/2 boundary and diverges beyond it
    if params.k > 0.5 and np.any(~p_pos & (q.p > 0)):
        raise DomainError("divergence diverges for zero p-entries when k > 1/2")
    value = float(_divergence_rows(p.p[np.newaxis], q.p[np.newaxis], params.k)[0, 0])
    flag = "full" if bool(np.all(p_pos)) else "extended"
    return DivergenceValue(value, params, flag)


def _divergence_literal_rows(p: np.ndarray, q: np.ndarray, params, form: str) -> np.ndarray:
    """(T, 1) divergence_literal sums of `form` over a batch of pairs; params
    broadcast against it. A cell with p = 0 adds 0, its limit for k < 1/2."""
    live = p > 0  # such a cell gets ratio 1, where ln_kr is 0
    pv, qv = np.where(live, p, 1.0), np.where(live, q, 1.0)
    k, r = params.k, params.r
    if form == "pq":
        ratio = pv / qv
        return _fsum_rows(pv * np.power(ratio, r - k) * ln_kr(ratio, params))
    ratio = qv / pv
    return _fsum_rows(-pv * np.power(ratio, r + k) * ln_kr(ratio, params))


def divergence_literal(
    p: Distribution, q: Distribution, params: DeformParams, form: str = "pq"
) -> float:
    """The defining sum evaluated as written, for cross-checking.

    form "pq" is sum p (p/q)^{r-k} ln_{k,r}(p/q); form "qp" is the
    equivalent -sum p (q/p)^{r+k} ln_{k,r}(q/p). Zero-probability terms
    are skipped (their limit vanishes for k < 1/2).
    """
    if form not in ("pq", "qp"):
        raise ParamError(f'form must be "pq" or "qp", got {form!r}')
    _check_pair(p, q)
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


def divergence_sum(a, b, params: DeformParams) -> float:
    """The defining sum on arbitrary positive weight vectors (no
    normalization), i.e. sum a_i (a_i/b_i)^{r-k} ln_{k,r}(a_i/b_i) in its
    closed form. This is the log-sum inequality's left side and the
    function the geometry oracle differentiates."""
    av, bv = _weights(a, b)
    return float(_divergence_rows(av[np.newaxis], bv[np.newaxis], params.k)[0, 0])


def _log_sum_rows(a: np.ndarray, b: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(T, 1) columns of both sides of the log-sum inequality over a batch of
    weight pairs: the termwise sum, and the term of the totals."""
    rhs = _positive_terms(_fsum_rows(a), _fsum_rows(b), _col(k, 2))
    return _divergence_rows(a, b, k), rhs


def log_sum_gap(a, b, params: DeformParams) -> tuple[float, float]:
    """Both sides of the generalized log-sum inequality.

    Returns (lhs, rhs) where lhs is the termwise sum and rhs the single
    term built from the totals; the inequality asserts lhs >= rhs.
    """
    av, bv = _weights(a, b)
    lhs, rhs = _log_sum_rows(av[np.newaxis], bv[np.newaxis], params.k)
    return float(lhs[0, 0]), float(rhs[0, 0])


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(T, 1) KL divergences sum p ln(p/q) in nats of a batch of pairs; a
    cell with p = 0 adds 0."""
    live = p > 0
    return _fsum_rows(p * (np.log(np.where(live, p, 1.0)) - np.log(np.where(live, q, 1.0))))


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats."""
    _check_pair(p, q)
    return float(_kl_rows(p.p[np.newaxis], q.p[np.newaxis])[0, 0])


def tsallis_divergence(p: Distribution, q: Distribution, q_param: float) -> float:
    """Standard one-parameter relative entropy -sum p ln_q(q_x/p_x)."""
    q_param = _finite_real("q", q_param)
    if q_param == 1:
        raise ParamError("q = 1 is the KL limit; use kl_divergence")
    live = _check_pair(p, q)
    pv, qv = p.p[live], q.p[live]
    return float(_fsum_rows((-pv * ln_q(qv / pv, q_param))[np.newaxis])[0, 0])


def mutual_divergence(j: Distribution, params: DeformParams) -> DivergenceValue:
    """Divergence of a 2-axis joint from the product of its marginals."""
    if j.ndim != 2:
        raise DimensionError(f"mutual divergence needs a 2-axis joint, got {j.ndim} axes")
    return divergence(j, product(j.marginal(0), j.marginal(1)), params)
