"""Divergence-induced Riemannian metric on the probability simplex.

Differentiating the implemented divergence at Q = P gives the diagonal
metric g_ii = (1 - 2k) / p_i; the printed reference form carries an extra
4r in the numerator. Both conventions are exposed: "derived" is the
default because it is what the finite-difference oracle of the shipped
divergence reproduces, "paper" selects (1 - 2k + 4r) / p_i. The same
split parameterizes the Hessian potential through its u log u coefficient.

Finite differences are central and unprojected: coordinates are perturbed
individually with no simplex projection, matching coordinate-wise partial
derivatives that ignore the constraint. Each displaced point moves one or
two coordinates, and every other term of its divergence is exactly -0.0,
so its exact sum is the IEEE sum of at most two nonzero terms: two term
vectors, at p + h and p - h, give the whole Hessian bit for bit as summing
every displaced point would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .deformed_log import DeformParams
from .distributions import Distribution, _as_float_array, _col, _rowsum, _typed
from .divergence import _positive_terms
from .errors import DimensionError, DomainError, ParamError, ValidationError

__all__ = [
    "CONVENTIONS",
    "MetricDiagonal",
    "PotentialCoefficients",
    "metric_coefficient",
    "fisher_metric",
    "fd_hessian",
    "quadratic_form",
    "hessian_potential",
]

CONVENTIONS = ("derived", "paper")

DEFAULT_FD_STEP = 1e-4
# A term at p +- h is p (1 - e^{2k t}) / 2k with t = ln(p / (p +- h)) good
# to about eps, so it carries an error of about eps p, which the second
# difference divides by h^2: against the metric's (1 - 2k) / p, the error
# reaches the value itself near h = sqrt(eps) p. fd_hessian rejects steps
# below this times max p.
_MIN_STEP_PER_P = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class MetricDiagonal:
    """Diagonal entries of the divergence-induced metric at a base point."""

    g: np.ndarray
    params: DeformParams
    convention: str


@dataclass(frozen=True)
class PotentialCoefficients:
    """Hessian potential c2 + u (c1 - A) + A u log u, parameterized by the
    u log u coefficient A and two integration constants."""

    A: float
    c1: float = 0.0
    c2: float = 0.0

    _type_error = ParamError  # what distributions._typed raises for another type

    def __post_init__(self):
        try:
            values = [_as_float_array(v, "coefficient") for v in (self.A, self.c1, self.c2)]
        except ValidationError:
            values = [np.nan]
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ParamError(
                f"coefficients must be finite real numbers, got A={self.A!r}, "
                f"c1={self.c1!r}, c2={self.c2!r}"
            )


def metric_coefficient(params: DeformParams, convention: str = "derived") -> float:
    """Numerator of the diagonal metric: 1 - 2k (derived) or 1 - 2k + 4r."""
    _typed(DeformParams, params=params)
    if convention == "derived":
        return 1.0 - 2.0 * params.k
    if convention == "paper":
        return 1.0 - 2.0 * params.k + 4.0 * params.r
    raise ParamError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _full_support(p: Distribution) -> np.ndarray:
    _typed(Distribution, p=p)
    if not p._positive:
        raise DomainError("metric requires a full-support base point (all p_i > 0)")
    return p.p


def _metric_rows(p: np.ndarray, params, convention: str = "derived") -> np.ndarray:
    """The diagonal metric A / p of every cell of a batch p, with A set by
    the convention; params may hold (T, 1) columns of k and r."""
    return metric_coefficient(params, convention) / p


def fisher_metric(
    p: Distribution, params: DeformParams, convention: str = "derived"
) -> MetricDiagonal:
    """Diagonal metric A / p_i with A set by the convention (_metric_rows)."""
    _typed(DeformParams, params=params)
    g = _metric_rows(_full_support(p), params, convention)
    g.setflags(write=False)
    return MetricDiagonal(g, params, convention)


def _fd_hessian_rows(p: np.ndarray, n: np.ndarray, k, h) -> np.ndarray:
    """(T, N, N) central-difference Hessians of a -> D(a || p_t) at a = p_t
    for a (T, N) batch of base points, each padded with 1.0 beyond its
    (T, 1) size n, with k and h scalars or (T, 1) columns.

    A displaced point p +- h e_i (+- h e_j) keeps every other coordinate
    bitwise, where the term is -0.0, so the exact sum of its terms is the
    IEEE sum of its at most two displaced ones, a -0.0 among them read as
    +0.0 (an exact sum of zeros is +0.0, as at the base point). So the terms
    at p + h and p - h on live coordinates give every difference bit for
    bit as summing each displaced point whole does. The entries beyond each
    trial's n x n block are +0.0.
    """
    t, width = p.shape
    h = _col(h, 2)
    live = np.arange(width) < n
    if np.any(live & ((p - h <= 0) | (p + h >= 1))):
        raise DomainError("step pushes some coordinate outside (0, 1)")
    k = _col(k, 2)
    # adding +0.0 turns a -0.0 term into its row's exact sum, +0.0
    up, dn = (np.where(live, _positive_terms(p + s, p, k), 0.0) + 0.0 for s in (h, -h))
    hess = np.zeros((t, width, width))
    diag = np.arange(width)
    hess[:, diag, diag] = (up + dn) / (h * h)  # the base point's sum, +0.0, drops out
    iu, ju = np.triu_indices(width, 1)
    ui, uj, di, dj = up[:, iu], up[:, ju], dn[:, iu], dn[:, ju]
    # one value per pair, mirrored, so each Hessian is exactly symmetric
    hess[:, iu, ju] = hess[:, ju, iu] = (
        (ui + uj) - (ui + dj) - (di + uj) + (di + dj)
    ) / (4.0 * h * h)
    return hess


def fd_hessian(
    p: Distribution, params: DeformParams, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference Hessian of a -> D(a || p) at a = p.

    Coordinates are treated as unconstrained, so the result can be
    compared entrywise against the analytic diagonal A / p_i. Each entry is
    a central difference of exact divergence sums, and a displaced point's
    sum is the IEEE sum of its at most two nonzero terms (every coordinate
    left in place gives -0.0), so the terms at p + h and p - h are all it
    takes: O(n^2) memory, for the output. This is the batched form on a
    batch of one. A step below sqrt(eps) max p, where rounding would
    swamp every entry, raises DomainError.
    """
    pv = _full_support(p)
    _typed(DeformParams, params=params)
    if pv.ndim != 1:
        raise DimensionError(f"fd_hessian needs a vector, got {pv.ndim} axes")
    if isinstance(step, bool) or not (isinstance(step, Real) and 0 < step < math.inf):
        raise DomainError(f"step must be a real number > 0, got {step!r}")
    smallest = _MIN_STEP_PER_P * float(pv.max())
    if step < smallest:
        raise DomainError(
            f"step {step!r} is below float resolution at p: the smallest accepted is {smallest!r}"
        )
    return _fd_hessian_rows(pv[np.newaxis], np.array([[pv.size]]), params.k, float(step))[0]


def _quadratic_rows(p: np.ndarray, dp: np.ndarray, params) -> np.ndarray:
    """(T, 1) quadratic forms sum g_ii dp_i^2, with the derived-convention
    metric (_metric_rows), of a batch of base points p and displacements
    dp; each row is summed by _rowsum, as np.sum adds it in C order."""
    return _rowsum(_metric_rows(p, params) * dp * dp)


def quadratic_form(p: Distribution, dp, params: DeformParams) -> float:
    """sum g_ii dp_i^2 with the derived-convention metric.

    The displacement must sum to 0 (tangent to the simplex) and keep
    p + dp a valid distribution. The second-order expansion of the
    divergence satisfies D(p + dp || p) ~ (1/2) quadratic_form(dp). This is
    _quadratic_rows on a batch of one.
    """
    _typed(DeformParams, params=params)
    pv = _full_support(p)
    dpv = _as_float_array(dp, "displacement")
    if dpv.shape != pv.shape:
        raise DimensionError(f"shape mismatch: {dpv.shape} vs {pv.shape}")
    if not np.all(np.isfinite(dpv)) or abs(float(dpv.sum())) > 1e-12:
        raise DomainError("displacement must be finite and sum to 0")
    if np.any(pv + dpv < 0):
        raise DomainError("p + dp leaves the simplex")
    return float(_quadratic_rows(pv[np.newaxis], dpv[np.newaxis], params)[0, 0])


def hessian_potential(u: float, coeffs: PotentialCoefficients) -> float:
    """Potential c2 + u (c1 - A) + A u log u; its second derivative is A / u.

    u may be an array, with coefficients that broadcast against it."""
    _typed(PotentialCoefficients, coeffs=coeffs)
    uv = _as_float_array(u, "u")
    if not np.all((0 < uv) & (uv < np.inf)):  # also catches nan
        raise DomainError(f"potential requires finite u > 0, got {u}")
    a, c1, c2 = coeffs.A, coeffs.c1, coeffs.c2
    return c2 + uv * (c1 - a) + a * uv * np.log(uv)
