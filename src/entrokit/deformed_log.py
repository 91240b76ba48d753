"""Scalar kernel for the two-parameter deformed logarithm.

The current-form logarithm is

    ln_{k,r}(x) = (x^k - x^{-k}) / (2k x^r) = (x^{2k} - 1) / (2k x^{r+k}),

defined for x > 0, with the standard parameter domain 0 < k <= 1/2, r > 0.
The module also provides the legacy form Ln_{k,r}(x) = x^r (x^k - x^{-k}) / (2k)
(note the sign flip on r relative to the current form), its pairing function
u_{k,r}, and the one-parameter q-logarithm used for reduction checks.

All three logarithms are x^a (x^b - 1) / b: ln_{k,r} with a = -(r + k),
b = 2k; Ln_{k,r} with a = r - k, b = 2k; ln_q with a = 0, b = 1 - q. One
evaluator, _deformed, computes it as e^{a ln x} expm1(b ln x) / b, so it
stays accurate near x = 1 and for k as small as 1e-4. It accepts scalars
or numpy arrays, and checks, takes the log of and evaluates its input one
box of distributions._tiles at a time, at most _LEAF cells, in place in
its output, so beyond the output ln_kr, ln_q and legacy_Ln each allocate
one box's logarithm (256 KiB) at any size; an input of at most _LEAF
cells is one box, its whole array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _LEAF, _as_float_array, _real, _tiles, _typed
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

# np.isfinite accepts these, so the domain checks would compare them as k or r
_NOT_REAL = (bool, np.bool_, complex, np.complexfloating)


@dataclass(frozen=True)
class DeformParams:
    """Deformation parameter pair (k, r).

    Strict mode (default) enforces 0 < k <= 1/2 and r > 0. Relaxed mode
    is an explicit opt-in that drops both bounds, so legacy comparisons
    and out-of-domain reductions (e.g. k = r = (1-q)/2 with q > 1) can run.
    Both modes require finite real numbers (not booleans) and |k| >= K_MIN.
    """

    k: float
    r: float
    relaxed: bool = False

    _type_error = ParamError  # what distributions._typed raises for another type

    def __post_init__(self):
        k, r = self.k, self.r
        try:
            if any(isinstance(v, _NOT_REAL) or np.ndim(v) for v in (k, r)):
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


def _x_array(x) -> np.ndarray:
    """A number or array x as a float array, which must be non-empty."""
    xv = _as_float_array(x, "x")
    if xv.size == 0:
        raise DomainError("x must be non-empty")
    return xv


def _log(xv: np.ndarray) -> np.ndarray:
    """ln x of an array x whose entries must be finite and > 0. Those are
    the x whose ln x is finite, so ln x is checked, while in cache, not x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(xv)
    if not (-math.inf < lx.min() and lx.max() < math.inf):  # nan fails too
        raise DomainError("x must be finite and > 0")
    return lx


def _log_x(x) -> np.ndarray:
    """ln x of a number or array x whose entries are finite and > 0."""
    return _log(_x_array(x))


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def _ln_kr_into(out: np.ndarray, x: np.ndarray, a, b) -> None:
    """x^a (x^b - 1) / b of x into out, as e^{a ln x} expm1(b ln x) / b: in
    place in out and in ln x, unless a and b broadcast x to a larger shape."""
    lx = np.asarray(_log(x))
    np.multiply(a, lx, out=out)
    np.exp(out, out=out)
    lx = np.multiply(b, lx, out=lx if lx.shape == out.shape else None)
    out *= np.expm1(lx, out=lx)
    out /= b


def _deformed(x, a, b):
    """x^a (x^b - 1) / b for x > 0, the one evaluator of every logarithm of
    the family; a and b are scalars or broadcast against x."""
    xv = _x_array(x)
    shape = np.broadcast(xv, a, b).shape
    out = np.empty_like(xv, shape=shape)  # laid out as x is, where x has its shape
    if out.size <= _LEAF:  # one box, the whole arrays
        _ln_kr_into(out, xv, a, b)
        return _maybe_scalar(out, x)
    # a scalar broadcasts as it is, and so does a box's part of an array
    for _, _, index in _tiles(shape, _LEAF):
        box = [v if np.ndim(v) == 0 else np.broadcast_to(v, shape)[index] for v in (xv, a, b)]
        _ln_kr_into(out[index], *box)
    return _maybe_scalar(out, x)


def ln_kr(x, params: DeformParams):
    """Two-parameter deformed logarithm (x^{2k} - 1) / (2k x^{r+k}).

    Zero exactly at x = 1, finite for all x > 0.
    """
    _typed(DeformParams, params=params)
    return _deformed(x, -(params.r + params.k), 2.0 * params.k)


def ln_q(x, q: float):
    """Tsallis q-logarithm (x^{1-q} - 1) / (1 - q), q != 1."""
    q = _real("q", q, "a finite real number", math.isfinite)
    if q == 1:
        raise ParamError("q = 1 is the ordinary logarithm; ln_q requires q != 1")
    return _deformed(x, 0.0, 1.0 - q)


def legacy_Ln(x, params: DeformParams, warn_outside_region: bool = True):
    """Legacy deformed logarithm x^r (x^k - x^{-k}) / (2k).

    Carries x^{+r} where the current form carries x^{-r}; the two are
    distinct functions and are never aliased. Parameters outside the
    legacy region trigger a LegacyRegionWarning but are not rejected.
    """
    _typed(DeformParams, params=params)
    out = _deformed(x, params.r - params.k, 2.0 * params.k)
    if warn_outside_region and not params.in_legacy_region:
        warnings.warn(
            f"(k={params.k}, r={params.r}) is outside the legacy validity region",
            LegacyRegionWarning,
            stacklevel=2,
        )
    return out


def legacy_u(x, params: DeformParams):
    """Legacy pairing function x^r (x^k + x^{-k}) / 2.

    Satisfies Ln(xy) = u(x) Ln(y) + Ln(x) u(y) together with legacy_Ln.
    """
    _typed(DeformParams, params=params)
    lx = _log_x(x)
    k, r = params.k, params.r
    out = 0.5 * (np.exp((r + k) * lx) + np.exp((r - k) * lx))
    return _maybe_scalar(out, x)
