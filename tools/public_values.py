"""Every public value of entrokit over a fixed set of inputs, one line each.

    python3 tools/public_values.py [SRC]

imports entrokit from SRC (default: this checkout's `src`) and prints one
line per value: its label, then `float.hex` of a number, the sha256 of an
array's bytes (with its shape), `raise <Error>: <message>` where the call
raises, and `warn <Category>: <message>` for each warning it gives. Two
trees are compared by diffing their outputs:

    python3 tools/public_values.py > change.txt
    python3 tools/public_values.py /path/to/parent/src > parent.txt
    diff parent.txt change.txt

The inputs cover every numeric function in `entrokit.__all__`: widths 1
to 2^17 + 3, cells equal to 0, C and Fortran layouts, strict and relaxed
parameters, and the inputs where a power or a ratio of the family
overflows though the value is finite.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parents[1] / "src"))
import entrokit as ek  # noqa: E402

WIDTHS = (1, 2, 3, 7, 64, 1023, 1024, 4097, 1 << 15, (1 << 15) + 1, (1 << 17) + 3)
STRICT = ((0.25, 1.0), (0.5, 1.0), (0.1, 0.3), (1e-4, 2.0), (0.49, 0.5))
RELAXED = ((-0.49, 1.0), (0.75, -0.5), (2.0, 1.5), (-3.0, 0.5))
Q_PARAMS = (0.5, 2.0, -1.0, 0.0, 600.0)
SPECS = {2: ("Y_given_X", "X_given_Y"), 3: ("Z_given_XY", "XY_given_Z", "Y_given_XZ")}


def _show(v) -> str:
    if isinstance(v, (ek.EntropyValue, ek.DivergenceValue)):
        return " ".join([v.value.hex(), *([v.support_flag] if hasattr(v, "support_flag") else [])])
    if isinstance(v, (ek.Distribution, ek.Channel)):
        v = v.p if isinstance(v, ek.Distribution) else v.w
    if isinstance(v, ek.MetricDiagonal):
        v = v.g
    if isinstance(v, tuple):
        return " ".join(map(_show, v))
    if isinstance(v, np.ndarray) and v.ndim:
        digest = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()[:32]
        return f"{'x'.join(map(str, v.shape))} {digest}"
    return float(v).hex()


def emit(label: str, call, *args, **kwargs) -> None:
    """One line: the value of call(*args, **kwargs), or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            shown = _show(call(*args, **kwargs))
        except Exception as e:  # the error is the outcome
            shown = f"raise {type(e).__name__}: {e}"
    shown += "".join(f" | warn {w.category.__name__}: {w.message}" for w in caught)
    print(f"{label} {shown}")


def _params():
    yield from (ek.DeformParams(k, r) for k, r in STRICT)
    yield from (ek.DeformParams(k, r, relaxed=True) for k, r in RELAXED)


def _vector(n: int, seed: int, zeros: bool) -> np.ndarray:
    """n log-uniform masses over 12 decades, every third cell 0 if zeros."""
    w = 10.0 ** np.random.default_rng(seed).uniform(-12.0, 0.0, n)
    if zeros and n > 1:
        w[::3] = 0.0
    return w / w.sum()


def logarithms() -> None:
    xs = {"scalars": np.array([1e-300, 1e-5, 0.5, 1.0, 2.0, 1e5, 1e300])}
    for n in (7, 1 << 15, (1 << 17) + 3):
        xs[f"n={n}"] = 10.0 ** np.random.default_rng(n).uniform(-300.0, 300.0, n)
    xs["F"] = np.asfortranarray(xs["n=7"][:6].reshape(2, 3))
    for name, x in xs.items():
        for prm in _params():
            tag = f"{name} k={prm.k} r={prm.r}"
            emit(f"ln_kr {tag}", ek.ln_kr, x, prm)
            emit(f"legacy_Ln {tag}", ek.legacy_Ln, x, prm, warn_outside_region=False)
            emit(f"legacy_u {tag}", ek.legacy_u, x, prm)
        for q in Q_PARAMS:
            emit(f"ln_q {name} q={q}", ek.ln_q, x, q)
    for x in (0.5, 1e300, 1e-300):
        emit(f"ln_kr scalar {x}", ek.ln_kr, x, ek.DeformParams(3.0, 2.0, relaxed=True))
    emit("legacy_Ln warns", ek.legacy_Ln, 0.5, ek.DeformParams(0.25, 1.0))


def sums(tag: str, p, q) -> None:
    """Every entropy and divergence of p, and of p from q."""
    emit(f"shannon_entropy {tag}", ek.shannon_entropy, p)
    emit(f"kl_divergence {tag}", ek.kl_divergence, p, q)
    for prm in _params():
        pt = f"{tag} k={prm.k} r={prm.r}"
        emit(f"entropy {pt}", ek.entropy, p, prm)
        emit(f"entropy_literal {pt}", ek.entropy_literal, p, prm)
        emit(f"divergence {pt}", ek.divergence, p, q, prm)
        for form in ("pq", "qp"):
            emit(f"divergence_literal {form} {pt}", ek.divergence_literal, p, q, prm, form)
        if p.ndim == 2:
            emit(f"mutual_divergence {pt}", ek.mutual_divergence, p, prm)
            emit(f"mutual_entropy {pt}", ek.mutual_entropy, p, prm)
        for spec in SPECS.get(p.ndim, ()):
            emit(f"conditional_entropy {spec} {pt}", ek.conditional_entropy, p, prm, spec)
        if p.ndim == 1 and p.p.min() > 0:
            emit(f"log_sum_gap {pt}", ek.log_sum_gap, p.p, q.p, prm)
    for qp in Q_PARAMS:
        emit(f"tsallis_entropy {tag} q={qp}", ek.tsallis_entropy, p, qp)
        emit(f"tsallis_divergence {tag} q={qp}", ek.tsallis_divergence, p, q, qp)


def distributions() -> None:
    for n in WIDTHS:
        for zeros in (False, True):
            p, q = (ek.make_distribution(_vector(n, s, z)) for s, z in ((n, zeros), (n + 1, False)))
            sums(f"n={n}{' zeros' if zeros else ''}", p, q)
    for shape in ((3, 4), (64, 96), (300, 500), (4, 5, 6), (40, 50, 60)):
        for order in "CF":
            for zeros in (False, True):
                w = _vector(int(np.prod(shape)), len(shape), zeros).reshape(shape, order=order)
                make = ek.make_joint2 if len(shape) == 2 else ek.make_joint3
                j, q = make(w), make(_vector(w.size, 99, False).reshape(shape, order=order))
                sums(f"{'x'.join(map(str, shape))} {order}{' zeros' if zeros else ''}", j, q)


def overflows() -> None:
    """The inputs where a power or a ratio overflows though the value is finite."""
    tiny = ek.make_distribution([1e-320, 1.0 - 1e-320])
    half = ek.make_distribution([0.5, 0.5])
    sums("tiny-p", tiny, half)
    for k in (0.49, 0.4999):
        emit(f"divergence tiny-p k={k}", ek.divergence, tiny, half, ek.DeformParams(k, 1.0))
        for form in ("pq", "qp"):
            emit(f"divergence_literal {form} tiny-p k={k}", ek.divergence_literal, tiny, half,
                 ek.DeformParams(k, 1.0), form)
        emit(f"tsallis_divergence tiny-p q={1 - 2 * k}", ek.tsallis_divergence, tiny, half, 1 - 2 * k)
    relaxed = ek.DeformParams(-0.49, 1.0, relaxed=True)
    emit("entropy tiny-p relaxed", ek.entropy, tiny, relaxed)
    emit("entropy_literal tiny-p relaxed", ek.entropy_literal, tiny, relaxed)
    p3 = ek.make_distribution([1e-300, 0.25, 0.75 - 1e-300])
    q3 = ek.make_distribution([0.3, 0.3, 0.4])
    for qp in (-1.0, -0.5, 0.02):
        emit(f"tsallis_divergence p3 q={qp}", ek.tsallis_divergence, p3, q3, qp)
    emit("tsallis_entropy 600", ek.tsallis_entropy, ek.make_distribution([0.25, 0.75]), 600.0)
    for a, b in (([1e-300, 1.0], [1.0, 1e-300]), ([1e300, 1e300], [1e-300, 1.0]),
                 ([1e-320], [1.0]), ([1e-320, 1e-320], [0.5, 1.0])):
        for prm in _params():
            emit(f"log_sum_gap {a} {b} k={prm.k}", ek.log_sum_gap, a, b, prm)


def geometry() -> None:
    for n in (2, 3, 8, 24):
        p = ek.make_distribution(_vector(n, n, False) * 0.5 + 0.5 / n)
        dp = np.zeros(n)
        dp[0], dp[-1] = 1e-3 * p.p.min(), -1e-3 * p.p.min()
        for prm in _params():
            tag = f"n={n} k={prm.k} r={prm.r}"
            emit(f"fd_hessian {tag}", ek.fd_hessian, p, prm)
            emit(f"quadratic_form {tag}", ek.quadratic_form, p, dp, prm)
            for c in ek.CONVENTIONS:
                emit(f"fisher_metric {c} {tag}", ek.fisher_metric, p, prm, c)
                emit(f"metric_coefficient {c} {tag}", ek.metric_coefficient, prm, c)
    u = np.array([1e-300, 0.25, 1.0, 7.0, 1e300])
    for a, c1, c2 in ((1.0, 0.0, 0.0), (0.5, 2.0, -1.0)):
        emit(f"hessian_potential A={a}", ek.hessian_potential, u, ek.PotentialCoefficients(a, c1, c2))


def operators() -> None:
    p, q = (ek.make_distribution(_vector(5, s, False)) for s in (1, 2))
    w = ek.make_channel(np.abs(np.sin(np.arange(15.0))).reshape(3, 5) + 0.1, normalize=True)
    emit("product", ek.product, p, q)
    emit("apply_channel", ek.apply_channel, w, p)
    emit("mix", ek.mix, p, q, 0.3)
    emit("sample_distribution", ek.sample_distribution, (4, 3), 7)
    emit("sample_channel", ek.sample_channel, 4, 6, 7)
    for make, data in ((ek.make_distribution, [1, 2, 3]), (ek.make_joint2, [[1, 2], [3, 4]]),
                       (ek.make_joint3, np.arange(1.0, 9.0).reshape(2, 2, 2)),
                       (ek.make_channel, [[1, 2], [3, 4]])):
        emit(f"{make.__name__} normalize", make, data, normalize=True)


if __name__ == "__main__":
    logarithms()
    distributions()
    overflows()
    geometry()
    operators()
