"""Generalized Tsallis entropy of single, joint, and conditional variables.

The entropy of a distribution P is -sum_x p^{r+k+1} ln_{k,r}(p), with
zero-probability terms contributing 0. Each term collapses algebraically
to p (1 - p^{2k}) / (2k), which is the canonical evaluator here: it is
non-negative on [0, 1] and makes the r-cancellation explicit. At relaxed
k < 0, p^{2k} overflows for a tiny p though p^{1+2k} is finite (p = 1e-320
at k = -0.49); such a term is formed again as (p - e^{(1+2k) ln p}) / 2k,
the twin of divergence's re-form of a term whose (q/p)^{2k} overflows
(deformed_log._finite_or). The literal as-written evaluator is kept
alongside as a cross-check. A joint is a Distribution of rank > 1, so its
entropy is the entropy of its cells.

Conditional entropies weight per-slice entropies by the conditioning
probability raised to 2k + 1; this is the weighting that makes the chain
rule S(X,Y) = S(X) + S(Y|X) hold identically.

Each sum is written once, as a batched `_*_rows` evaluator; the public
functions call it on a batch of one, and the property sweep on
zero-padded batches, so it checks the sums users get. Every entropy-type
sum (entropy, its literal form, Shannon, Tsallis and the conditional
entropies) gets its terms from _cell_terms, which states the rule for a
cell with p = 0 once: it adds 0. Each kernel evaluates only cells with
p > 0; a cell with p = 0 reaches it as p = 1, where every term of the
family is 0, and a conditioning row of mass 0 is weighted as one of mass
1, whose cells are all such cells. The public functions hand an
evaluator only positive cells (a Distribution knows whether all of its
cells are, so a positive one is not compressed), and conditional_entropy
only rows of positive mass: a zero adds 0 but would regroup numpy's
pairwise sum.

A row longer than _LEAF cells is evaluated and summed in one pass, one run
of at most _LEAF cells at a time (distributions._rowsum): numpy's np.sum
is pairwise, and the runs are the subtrees of its tree, added in its
order, so the value is np.sum's bit for bit and no term array as large as
the row is built. entropy, shannon_entropy, entropy_literal and
tsallis_entropy allocate under 1 MiB on 2^20 positive cells; with zero
cells, the compressed copy of the positive ones, its mask, and under 1 MiB.

A conditional entropy is a sum over the rows of its given axes, so it is
evaluated over blocks of whole rows, of about _LEAF cells, or one row
where a row is longer; such a row is summed run by run, as above. Each
row is summed along its cells in C order, as np.sum sums a contiguous
row, so the value depends on the joint's numbers alone. A block or run is
a view of the joint, or a contiguous copy of that block or run alone where
the spec moves an axis. Beyond the joint, and the sum over any axis the
spec leaves out, it allocates a few blocks and a few vectors of one value
per row: under 2 MiB for any spec of a 128^3 joint, and under 1 MiB for a
2 x 512 x 512 one.

Entropies keep numpy's pairwise sum rather than math.fsum, so they are
not bit-exactly permutation invariant: reordering n cells can move the
result, by at most n * eps * S since every term is >= 0. Divergences,
whose terms change sign, are summed with fsum and are invariant exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed_log import DeformParams, _deformed, _finite_or, ln_kr
from .distributions import (_LEAF, Distribution, _cells, _col, _marginal_rows, _real, _rowsum,
                            _typed)
from .divergence import _closed_form, _unit_at_zero
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


def _cell_terms(p: np.ndarray, kernel, *args) -> np.ndarray:
    """The terms of an entropy-type sum: kernel(p, *args), which evaluates
    cells with p > 0, and the one rule for a cell with p = 0: it adds 0.
    The kernel gets such a cell as p = 1, where every entropy term is 0."""
    return kernel(*_unit_at_zero(p), *args)


def _entropy_terms(p, k) -> np.ndarray:
    """p (1 - p^{2k}) / (2k) per cell > 0, exactly 0 at p = 1; k may
    broadcast against p. Evaluated in place in the logarithm's buffer; a
    term whose p^{2k} overflows, at relaxed k < 0, is formed again as
    (p - e^{(1+2k) ln p}) / 2k, finite where p^{1+2k} is (_finite_or)."""
    return _finite_or(lambda p, k: _closed_form(np.log(p), p, k),
                      lambda p, k: (p - np.exp((1.0 + 2.0 * k) * np.log(p))) / (2.0 * k), p, k)


def _entropy_rows(p: np.ndarray, k) -> np.ndarray:
    """(T, 1) entropies of a batch (axis 0) of arrays of any rank, for a
    scalar k or one k per row. Zero cells add 0."""
    return _rowsum(p, _cell_terms, _entropy_terms, _col(k, 2))


def _positive_cells(p: Distribution) -> np.ndarray:
    """The cells p > 0 of a distribution as a batch of one, in C order: the
    array itself when every cell is (a zero cell adds 0 to a sum but would
    regroup numpy's pairwise tree)."""
    _typed(Distribution, p=p)
    return (p.p if p._positive else p.p[p.p > 0])[np.newaxis]


def entropy(p: Distribution, params: DeformParams) -> EntropyValue:
    """Entropy -sum p^{r+k+1} ln_{k,r}(p) over the cells of a distribution
    of any rank; 0 exactly on degenerate inputs."""
    _typed(DeformParams, params=params)
    return EntropyValue(float(_entropy_rows(_positive_cells(p), params.k)[0, 0]), params)


# the entropy of a joint is the entropy of its cells
joint_entropy = entropy


def _literal_terms(p: np.ndarray, params) -> np.ndarray:
    """p^{r+k+1} ln_{k,r}(p) per cell > 0, as written; 0 at p = 1."""
    return np.power(p, params.r + params.k + 1.0) * ln_kr(p, params)


def _entropy_literal_rows(p: np.ndarray, params) -> np.ndarray:
    """(T, 1) defining sums -sum p^{r+k+1} ln_{k,r}(p) of a batch, term by
    term as written; params are scalars or (T, 1) columns. Zero cells add 0."""
    return -_rowsum(p, _cell_terms, _literal_terms, params)


def entropy_literal(p: Distribution, params: DeformParams) -> float:
    """The defining sum evaluated term by term as written, without the
    algebraic collapse. Retained as a cross-check of the canonical path."""
    _typed(DeformParams, params=params)
    return float(_entropy_literal_rows(_positive_cells(p), params)[0, 0])


def _quotient_terms(p: np.ndarray, mass, k) -> np.ndarray:
    """The entropy terms of p / mass, one row of a conditional distribution.
    The row weights take the cells' rule: a row of mass 0 is divided by 1,
    which leaves its cells at 0."""
    return _cell_terms(p / _unit_at_zero(mass)[0], _entropy_terms, k)


def _conditional_rows(t: np.ndarray, k, given: int = 1, drop_empty: bool = False) -> np.ndarray:
    """(T, 1) sums over g of p(g)^{2k+1} S(O | g) of a batch of (T, G..., O...)
    arrays whose first `given` axes after the batch axis are the given ones.
    Zero cells add 0, and so do zero-mass rows unless drop_empty, which
    leaves them out of a batch of one, as if they were not there.

    Each row is summed along its cells in C order, pairwise as np.sum sums
    a contiguous row, whatever t's strides and however rows share a block.
    The rows are evaluated over blocks of at most _LEAF cells, each a view
    of a C-contiguous t, else a contiguous copy of that block alone
    (distributions._cells). A row longer than _LEAF cells is a block of its
    own, summed run by run in np.sum's tree (distributions._rowsum)."""
    shape = t.shape[1 : 1 + given]
    T, G, O = len(t), math.prod(shape), math.prod(t.shape[1 + given :])
    cells, step = _cells(t), max(1, _LEAF // O)
    mass, inner = np.empty((2, T, G))  # inner: S(O | g)
    for start in range(0, G, step):
        b = slice(start, min(start + step, G))
        if O > _LEAF:
            row = t[(slice(None), *np.unravel_index(start, shape))]
            mass[:, b] = _rowsum(row)
            inner[:, b] = _rowsum(row, _quotient_terms, mass[:, b], _col(k, 2))
            continue
        block = cells(start * O, b.stop * O).reshape(T, -1, O)
        block.sum(axis=2, out=mass[:, b])
        _quotient_terms(block, mass[:, b, np.newaxis], _col(k, 3)).sum(axis=2, out=inner[:, b])
    rows = np.power(*_unit_at_zero(mass), 2.0 * _col(k, 2) + 1.0) * inner
    if drop_empty:
        rows = rows[:, mass[0] > 0]
    return rows.sum(axis=1, keepdims=True)


def _letter_axes(of: str, given: str, ndim: int) -> tuple[list[int], list[int]] | None:
    """The axes the letters of `of` and `given` name; None unless `of` is
    non-empty and the letters name distinct axes among the first ndim."""
    axes = [AXIS_LETTERS[:ndim].find(c) for c in of + given]
    if not of or -1 in axes or len(set(axes)) != len(axes):
        return None
    return axes[: len(of)], axes[len(of) :]


def _spec_axes(spec: str, ndim: int) -> tuple[list[int], list[int]]:
    """The (of, given) axes of a "<of>_given_<given>" spec."""
    if not isinstance(spec, str):
        raise ParamError(f"spec must be a string such as 'Y_given_X', got {spec!r}")
    of, sep, given = spec.partition("_given_")
    axes = _letter_axes(of, given, ndim) if sep and given else None
    if axes is None:
        raise ParamError(
            f"spec must be <of>_given_<given> over distinct axis letters "
            f"{AXIS_LETTERS[:ndim]!r}, got {spec!r}"
        )
    return axes


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
    _typed(Distribution, j=j)
    _typed(DeformParams, params=params)
    of, given = _spec_axes(spec, j.ndim)
    view = _marginal_rows(j.p[np.newaxis], given + of)  # (1, G..., O...)
    value = _conditional_rows(view, params.k, len(given), drop_empty=True)
    return EntropyValue(float(value[0, 0]), params)


# the three-variable name of the same function
conditional_entropy3 = conditional_entropy


def mutual_entropy(j: Distribution, params: DeformParams) -> float:
    """S(X) + S(Y) - S(X,Y) of a 2-axis joint; equals S(Y) - S(Y|X) by the
    chain rule."""
    _typed(Distribution, j=j)
    if j.ndim != 2:
        raise DimensionError(f"mutual entropy needs a 2-axis joint, got {j.ndim} axes")
    sx, sy, sxy = (entropy(d, params).value for d in (j.marginal(0), j.marginal(1), j))
    return sx + sy - sxy


def _shannon_terms(p: np.ndarray) -> np.ndarray:
    """p ln p per cell > 0; 0 at p = 1."""
    return p * np.log(p)


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """(T, 1) Shannon entropies -sum p ln p in nats of a batch; zero cells add 0."""
    return -_rowsum(p, _cell_terms, _shannon_terms)


def shannon_entropy(p: Distribution) -> float:
    """-sum p ln p in nats."""
    return float(_shannon_rows(_positive_cells(p))[0, 0])


def _tsallis_entropy_rows(p: np.ndarray, q) -> np.ndarray:
    """(T, 1) Tsallis entropies -sum p^q ln_q(p) of a batch, for a scalar q
    or one q per row; zero cells add 0. Each term p^q (p^{1-q} - 1) / (1 - q)
    goes through the logarithms' evaluator, not through the entropy's closed
    form, so it still checks that closed form independently."""
    return -_rowsum(p, _cell_terms, _deformed, q, 1.0 - q)


def tsallis_entropy(p: Distribution, q: float) -> float:
    """Standard one-parameter entropy -sum p^q ln_q(p), q != 1."""
    q = _real("q", q, "a finite real number", math.isfinite)
    if q == 1:
        raise ParamError("q = 1 is the Shannon limit; use shannon_entropy")
    return float(_tsallis_entropy_rows(_positive_cells(p), q)[0, 0])
