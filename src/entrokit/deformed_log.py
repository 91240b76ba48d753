"""Scalar kernel for the two-parameter deformed logarithm.

The current-form logarithm is

    ln_{k,r}(x) = (x^k - x^{-k}) / (2k x^r) = (x^{2k} - 1) / (2k x^{r+k}),

defined for x > 0, with the standard parameter domain 0 < k <= 1/2, r > 0.
The module also provides the legacy form Ln_{k,r}(x) = x^r (x^k - x^{-k}) / (2k)
(note the sign flip on r relative to the current form), its pairing function
u_{k,r}, and the one-parameter q-logarithm used for reduction checks.

All functions accept scalars or numpy arrays and evaluate through
expm1/exp so they stay accurate near x = 1 and for k as small as 1e-4.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LegacyRegionWarning, ParamError

__all__ = [
    "K_MIN",
    "DeformParams",
    "ln_kr",
    "ln_q",
    "legacy_Ln",
    "legacy_u",
]

# Smallest accepted |k|: the largest p below 1 has |ln p| = 2^-53, and
# 2k ln p must stay a normal float. Below this the expm1 closed forms
# lose precision in the subnormals and return wrong values (k = 5e-324
# gives entropy 1.0 on a distribution whose Shannon entropy is 1.0397).
K_MIN = 2.0**-970

# np.isfinite accepts these, so the domain checks would compare complex k or r
_COMPLEX = (complex, np.complexfloating)


@dataclass(frozen=True)
class DeformParams:
    """Deformation parameter pair (k, r).

    Strict mode (default) enforces 0 < k <= 1/2 and r > 0. Relaxed mode
    is an explicit opt-in that drops both bounds, so legacy comparisons
    and out-of-domain reductions (e.g. k = r = (1-q)/2 with q > 1) can run.
    Both modes require finite real numbers and |k| >= K_MIN.
    """

    k: float
    r: float
    relaxed: bool = False

    def __post_init__(self):
        k, r = self.k, self.r
        try:
            if isinstance(k, _COMPLEX) or isinstance(r, _COMPLEX):
                raise TypeError
            finite = np.isfinite(k) and np.isfinite(r)
        except TypeError:
            raise ParamError(f"k and r must be real numbers, got k={k!r}, r={r!r}") from None
        if not finite:
            raise ParamError(f"k and r must be finite, got k={k}, r={r}")
        if not self.relaxed:
            if not (0 < k <= 0.5):
                raise ParamError(
                    f"strict mode requires 0 < k <= 1/2, got k={k} "
                    "(pass relaxed=True to override)"
                )
            if not r > 0:
                raise ParamError(
                    f"strict mode requires r > 0, got r={r} "
                    "(pass relaxed=True to override)"
                )
        if abs(k) < K_MIN:
            raise ParamError(f"|k| must be at least K_MIN = {K_MIN!r}, got k={k!r}")

    @property
    def in_legacy_region(self) -> bool:
        """Membership in the legacy validity region: |r| <= |k| for |k| < 1/2,
        |r| <= 1 - |k| for 1/2 <= |k| < 1."""
        ak = abs(self.k)
        if ak < 0.5:
            return -ak <= self.r <= ak
        if ak < 1.0:
            return ak - 1 <= self.r <= 1 - ak
        return False


def _as_positive_array(x, what: str) -> np.ndarray:
    xv = np.asarray(x, dtype=float)
    if xv.size == 0:
        raise DomainError(f"{what} must be non-empty")
    if not np.all(np.isfinite(xv)) or np.any(xv <= 0):
        raise DomainError(f"{what} must be finite and > 0")
    return xv


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def ln_kr(x, params: DeformParams):
    """Two-parameter deformed logarithm (x^{2k} - 1) / (2k x^{r+k}).

    Zero exactly at x = 1, finite for all x > 0.
    """
    xv = _as_positive_array(x, "x")
    k, r = params.k, params.r
    lx = np.log(xv)
    out = np.expm1(2.0 * k * lx) * np.exp(-(r + k) * lx) / (2.0 * k)
    return _maybe_scalar(out, x)


def ln_q(x, q: float):
    """Tsallis q-logarithm (x^{1-q} - 1) / (1 - q), q != 1."""
    if q == 1:
        raise ParamError("q = 1 is the ordinary logarithm; ln_q requires q != 1")
    xv = _as_positive_array(x, "x")
    out = np.expm1((1.0 - q) * np.log(xv)) / (1.0 - q)
    return _maybe_scalar(out, x)


def legacy_Ln(x, params: DeformParams, warn_outside_region: bool = True):
    """Legacy deformed logarithm x^r (x^k - x^{-k}) / (2k).

    Carries x^{+r} where the current form carries x^{-r}; the two are
    distinct functions and are never aliased. Parameters outside the
    legacy region trigger a LegacyRegionWarning but are not rejected.
    """
    xv = _as_positive_array(x, "x")
    if warn_outside_region and not params.in_legacy_region:
        warnings.warn(
            f"(k={params.k}, r={params.r}) is outside the legacy validity region",
            LegacyRegionWarning,
            stacklevel=2,
        )
    k, r = params.k, params.r
    lx = np.log(xv)
    out = np.expm1(2.0 * k * lx) * np.exp((r - k) * lx) / (2.0 * k)
    return _maybe_scalar(out, x)


def legacy_u(x, params: DeformParams):
    """Legacy pairing function x^r (x^k + x^{-k}) / 2.

    Satisfies Ln(xy) = u(x) Ln(y) + Ln(x) u(y) together with legacy_Ln.
    """
    xv = _as_positive_array(x, "x")
    k, r = params.k, params.r
    lx = np.log(xv)
    out = 0.5 * (np.exp((r + k) * lx) + np.exp((r - k) * lx))
    return _maybe_scalar(out, x)
