"""Generalized Tsallis relative entropy between distributions.

The divergence of P from Q is sum_x p (p/q)^{r-k} ln_{k,r}(p/q), whose
per-term closed form (p - p^{1-2k} q^{2k}) / (2k) is the canonical
evaluator: it is r-free, finite and exact at p = 0 without limit-taking,
and zero exactly when p = q termwise. P and Q may be of any rank, as long
as their shapes agree; the sum runs over cells. Final reductions use
math.fsum so the value is independent of coordinate order (permutation
symmetry holds bit-exactly).

p > 0 with q = 0 is rejected loudly rather than returned as infinity,
because downstream arithmetic (pseudo-additivity, convexity sweeps) would
silently propagate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams, _finite_real, ln_kr, ln_q
from .distributions import Distribution, product
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


def divergence(
    p: Distribution, q: Distribution, params: DeformParams
) -> DivergenceValue:
    """Relative entropy of P from Q; requires support(P) within support(Q)."""
    p_pos = _check_pair(p, q)
    pv, qv = p.p, q.p
    k = params.k

    terms = _positive_terms(pv[p_pos], qv[p_pos], k).tolist()
    # p = 0 < q: the closed form's p^{1-2k} factor kills the term for
    # k < 1/2 and leaves -q at the k = 1/2 boundary
    tail = ~p_pos & (qv > 0)
    if np.any(tail):
        if k == 0.5:
            terms.extend((-qv[tail]).tolist())
        elif k > 0.5:
            raise DomainError(
                "divergence diverges for zero p-entries when k > 1/2"
            )
    flag = "full" if bool(np.all(p_pos)) else "extended"
    return DivergenceValue(math.fsum(terms), params, flag)


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
    live = _check_pair(p, q)
    pv, qv = p.p[live], q.p[live]
    if pv.size == 0:
        return 0.0
    return math.fsum(_literal_terms(pv, qv, params, form).tolist())


def _literal_terms(pv: np.ndarray, qv: np.ndarray, params: DeformParams, form: str):
    """The terms of divergence_literal's `form` elementwise, for p, q > 0."""
    k, r = params.k, params.r
    if form == "pq":
        ratio = pv / qv
        return pv * np.power(ratio, r - k) * ln_kr(ratio, params)
    ratio = qv / pv
    return -pv * np.power(ratio, r + k) * ln_kr(ratio, params)


def divergence_sum(a, b, params: DeformParams) -> float:
    """The defining sum on arbitrary positive weight vectors (no
    normalization), i.e. sum a_i (a_i/b_i)^{r-k} ln_{k,r}(a_i/b_i) in its
    closed form. This is the log-sum inequality's left side and the
    function the geometry oracle differentiates."""
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    if av.shape != bv.shape:
        raise DimensionError(f"shape mismatch: {av.shape} vs {bv.shape}")
    if np.any(av <= 0) or np.any(bv <= 0) or not (
        np.all(np.isfinite(av)) and np.all(np.isfinite(bv))
    ):
        raise DomainError("entries must be finite and > 0")
    return math.fsum(_positive_terms(av, bv, params.k).ravel().tolist())


def log_sum_gap(a, b, params: DeformParams) -> tuple[float, float]:
    """Both sides of the generalized log-sum inequality.

    Returns (lhs, rhs) where lhs is the termwise sum and rhs the single
    term built from the totals; the inequality asserts lhs >= rhs.
    """
    lhs = divergence_sum(a, b, params)
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.size == 0:
        raise DomainError("weights must be non-empty")
    total_a, total_b = math.fsum(av.tolist()), math.fsum(bv.tolist())
    rhs = float(_positive_terms(np.asarray([total_a]), np.asarray([total_b]), params.k)[0])
    return lhs, rhs


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats."""
    live = _check_pair(p, q)
    pv, qv = p.p[live], q.p[live]
    return math.fsum((pv * (np.log(pv) - np.log(qv))).tolist())


def tsallis_divergence(p: Distribution, q: Distribution, q_param: float) -> float:
    """Standard one-parameter relative entropy -sum p ln_q(q_x/p_x)."""
    if _finite_real("q", q_param) == 1:
        raise ParamError("q = 1 is the KL limit; use kl_divergence")
    live = _check_pair(p, q)
    pv, qv = p.p[live], q.p[live]
    terms = -pv * ln_q(qv / pv, q_param)
    return math.fsum(np.atleast_1d(terms).tolist())


def mutual_divergence(j: Distribution, params: DeformParams) -> DivergenceValue:
    """Divergence of a 2-axis joint from the product of its marginals."""
    if j.ndim != 2:
        raise DimensionError(f"mutual divergence needs a 2-axis joint, got {j.ndim} axes")
    return divergence(j, product(j.marginal(0), j.marginal(1)), params)
