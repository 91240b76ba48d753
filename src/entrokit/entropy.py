"""Generalized Tsallis entropy of single, joint, and conditional variables.

The entropy of a distribution P is -sum_x p^{r+k+1} ln_{k,r}(p), with
zero-probability terms contributing 0. Each term collapses algebraically
to p (1 - p^{2k}) / (2k), which is the canonical evaluator here: it is
exact at p = 0, non-negative on [0, 1], and makes the r-cancellation
explicit. The literal as-written evaluator is kept alongside as a
cross-check. A joint is a Distribution of rank > 1, so its entropy is
the entropy of its cells.

Conditional entropies weight per-slice entropies by the conditioning
probability raised to 2k + 1; this is the weighting that makes the chain
rule S(X,Y) = S(X) + S(Y|X) hold identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams, _finite_real, ln_kr
from .distributions import Distribution
from .errors import DimensionError, ParamError

__all__ = [
    "EntropyValue",
    "entropy",
    "entropy_literal",
    "conditional_entropy",
    "mutual_entropy",
    "shannon_entropy",
    "tsallis_entropy",
]

# conditional_entropy specs name axes 0, 1, 2 by these letters
AXIS_LETTERS = "XYZ"


@dataclass(frozen=True)
class EntropyValue:
    """Non-negative entropy with the parameters it was computed under."""

    value: float
    params: DeformParams

    def __float__(self) -> float:
        return self.value


def _entropy_terms(p: np.ndarray, k: float) -> np.ndarray:
    """p (1 - p^{2k}) / (2k) elementwise, for p > 0; k may broadcast
    against p. Evaluated in place in one buffer."""
    t = np.log(p)
    t *= 2.0 * k
    np.expm1(t, out=t)
    t *= p
    t /= -2.0 * k
    return t


def _entropy_sum(arr: np.ndarray, k: float) -> float:
    """sum of p (1 - p^{2k}) / (2k) over positive entries of any shape."""
    p = arr[arr > 0]
    if p.size == 0:
        return 0.0
    return float(np.sum(_entropy_terms(p, k)))


def entropy(p: Distribution, params: DeformParams) -> EntropyValue:
    """Entropy -sum p^{r+k+1} ln_{k,r}(p) over the cells of a distribution
    of any rank; 0 exactly on degenerate inputs."""
    return EntropyValue(_entropy_sum(p.p, params.k), params)


# the entropy of a joint is the entropy of its cells
joint_entropy = entropy


def entropy_literal(p: Distribution, params: DeformParams) -> float:
    """The defining sum evaluated term by term as written, without the
    algebraic collapse. Retained as a cross-check of the canonical path."""
    pos = p.p[p.p > 0]
    if pos.size == 0:
        return 0.0
    return float(-np.sum(_literal_terms(pos, params)))


def _literal_terms(p: np.ndarray, params: DeformParams) -> np.ndarray:
    """p^{r+k+1} ln_{k,r}(p) elementwise, for p > 0."""
    return np.power(p, params.r + params.k + 1.0) * ln_kr(p, params)


def _conditional_sum(mat: np.ndarray, k: float) -> float:
    """Weighted conditional entropy for a matrix with conditioning variable
    on the rows: sum_rows p(row)^{2k+1} S(col | row). Zero-probability rows
    contribute nothing."""
    prow = mat.sum(axis=1)
    live = prow > 0
    if not np.any(live):
        return 0.0
    cond = mat[live] / prow[live, None]
    # zero cells evaluate at 1, where the term is exactly 0
    inner = np.sum(_entropy_terms(np.where(cond > 0, cond, 1.0), k), axis=1)
    return float(np.sum(np.power(prow[live], 2.0 * k + 1.0) * inner))


def _spec_axes(spec: str, ndim: int) -> tuple[list[int], list[int]]:
    """The (of, given) axes of a "<of>_given_<given>" spec."""
    if not isinstance(spec, str):
        raise ParamError(f"spec must be a string such as 'Y_given_X', got {spec!r}")
    of, sep, given = spec.partition("_given_")
    axes = [AXIS_LETTERS[:ndim].find(c) for c in of + given]
    if not (sep and of and given) or -1 in axes or len(set(axes)) != len(axes):
        raise ParamError(
            f"spec must be <of>_given_<given> over distinct axis letters "
            f"{AXIS_LETTERS[:ndim]!r}, got {spec!r}"
        )
    return axes[: len(of)], axes[len(of) :]


def conditional_entropy(
    j: Distribution, params: DeformParams, spec: str = "Y_given_X"
) -> EntropyValue:
    """Conditional entropy S(of | given) of a joint.

    spec is "<of>_given_<given>" over the axis letters X, Y, Z (axes 0, 1,
    2), e.g. "Y_given_X", "XY_given_Z" or "Y_given_XZ". Axes named in
    neither part are summed out first; each cell of the given axes then
    weights the entropy of the of axes conditioned on it by its
    probability raised to 2k + 1.
    """
    of, given = _spec_axes(spec, j.ndim)
    kept = sorted(of + given)
    t = j.p
    if len(kept) < t.ndim:
        t = t.sum(axis=tuple(a for a in range(t.ndim) if a not in kept))
    t = t.transpose([kept.index(a) for a in given + of])
    mat = t.reshape(math.prod(t.shape[: len(given)]), -1)
    return EntropyValue(_conditional_sum(mat, params.k), params)


# the three-variable name of the same function
conditional_entropy3 = conditional_entropy


def mutual_entropy(j: Distribution, params: DeformParams) -> float:
    """S(X) + S(Y) - S(X,Y) of a 2-axis joint; equals S(Y) - S(Y|X) by the
    chain rule."""
    if j.ndim != 2:
        raise DimensionError(f"mutual entropy needs a 2-axis joint, got {j.ndim} axes")
    k = params.k
    sx = _entropy_sum(j.p.sum(axis=1), k)
    sy = _entropy_sum(j.p.sum(axis=0), k)
    sxy = _entropy_sum(j.p, k)
    return sx + sy - sxy


def shannon_entropy(p: Distribution) -> float:
    """-sum p ln p in nats."""
    pos = p.p[p.p > 0]
    return float(-np.sum(pos * np.log(pos)))


def tsallis_entropy(p: Distribution, q: float) -> float:
    """Standard one-parameter entropy -sum p^q ln_q(p), q != 1."""
    if _finite_real("q", q) == 1:
        raise ParamError("q = 1 is the Shannon limit; use shannon_entropy")
    pos = p.p[p.p > 0]
    if pos.size == 0:
        return 0.0
    lp = np.log(pos)
    return float(-np.sum(np.exp(q * lp) * np.expm1((1.0 - q) * lp) / (1.0 - q)))
