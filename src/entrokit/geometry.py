"""Divergence-induced Riemannian metric on the probability simplex.

Differentiating the implemented divergence at Q = P gives the diagonal
metric g_ii = (1 - 2k) / p_i; the printed reference form carries an extra
4r in the numerator. Both conventions are exposed: "derived" is the
default because it is what the finite-difference oracle of the shipped
divergence reproduces, "paper" selects (1 - 2k + 4r) / p_i. The same
split parameterizes the Hessian potential through its u log u coefficient.

Finite differences are central and unprojected: coordinates are perturbed
individually with no simplex projection, matching coordinate-wise partial
derivatives that ignore the constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams
from .distributions import Distribution
from .divergence import _positive_terms
from .errors import DimensionError, DomainError, ParamError

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


def metric_coefficient(params: DeformParams, convention: str = "derived") -> float:
    """Numerator of the diagonal metric: 1 - 2k (derived) or 1 - 2k + 4r."""
    if convention == "derived":
        return 1.0 - 2.0 * params.k
    if convention == "paper":
        return 1.0 - 2.0 * params.k + 4.0 * params.r
    raise ParamError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _full_support(p: Distribution) -> np.ndarray:
    if np.any(p.p <= 0):
        raise DomainError("metric requires a full-support base point (all p_i > 0)")
    return p.p


def fisher_metric(
    p: Distribution, params: DeformParams, convention: str = "derived"
) -> MetricDiagonal:
    """Diagonal metric A / p_i with A set by the convention."""
    pv = _full_support(p)
    a = metric_coefficient(params, convention)
    g = a / pv
    g.setflags(write=False)
    return MetricDiagonal(g, params, convention)


def fd_hessian(
    p: Distribution, params: DeformParams, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference Hessian of a -> D(a || p) at a = p.

    Coordinates are treated as unconstrained, so the result can be
    compared entrywise against the analytic diagonal A / p_i. Every
    displaced point is one row of a single array evaluation.
    """
    pv = _full_support(p)
    if pv.ndim != 1:
        raise DimensionError(f"fd_hessian needs a vector, got {pv.ndim} axes")
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step}")
    if np.any(pv - step <= 0) or np.any(pv + step >= 1):
        raise DomainError("step pushes some coordinate outside (0, 1)")

    n = pv.shape[0]
    h = float(step)
    iu, ju = np.triu_indices(n, 1)
    pairs = np.arange(iu.size)[:, None]
    # rows: p, p + h e_i, p - h e_i, then p +- h e_i +- h e_j for each i < j
    shift = np.eye(n) * h
    corners = np.tile(pv, (iu.size, 4, 1))
    corners[pairs, np.arange(4), iu[:, None]] += [h, h, -h, -h]
    corners[pairs, np.arange(4), ju[:, None]] += [h, -h, h, -h]
    points = np.concatenate([pv[None], pv + shift, pv - shift, corners.reshape(-1, n)])
    terms = _positive_terms(points, pv, params.k).tolist()
    f = np.array([math.fsum(row) for row in terms])
    hess = np.diag((f[1 : n + 1] - 2.0 * f[0] + f[n + 1 : 2 * n + 1]) / (h * h))
    c = f[2 * n + 1 :].reshape(-1, 4).T
    # one value per pair, mirrored, so the Hessian is exactly symmetric
    hess[iu, ju] = hess[ju, iu] = (c[0] - c[1] - c[2] + c[3]) / (4.0 * h * h)
    return hess


def quadratic_form(p: Distribution, dp, params: DeformParams) -> float:
    """sum g_ii dp_i^2 with the derived-convention metric.

    The displacement must sum to 0 (tangent to the simplex) and keep
    p + dp a valid distribution. The second-order expansion of the
    divergence satisfies D(p + dp || p) ~ (1/2) quadratic_form(dp).
    """
    pv = _full_support(p)
    dpv = np.asarray(dp, dtype=float)
    if dpv.shape != pv.shape:
        raise DimensionError(f"shape mismatch: {dpv.shape} vs {pv.shape}")
    if not np.all(np.isfinite(dpv)) or abs(float(dpv.sum())) > 1e-12:
        raise DomainError("displacement must be finite and sum to 0")
    if np.any(pv + dpv < 0):
        raise DomainError("p + dp leaves the simplex")
    a = metric_coefficient(params, "derived")
    return float(np.sum(a / pv * dpv * dpv))


def hessian_potential(u: float, coeffs: PotentialCoefficients) -> float:
    """Potential c2 + u (c1 - A) + A u log u; its second derivative is A / u."""
    if not 0 < u < np.inf:  # also catches nan
        raise DomainError(f"potential requires finite u > 0, got {u}")
    a, c1, c2 = coeffs.A, coeffs.c1, coeffs.c2
    return c2 + u * (c1 - a) + a * u * np.log(u)
