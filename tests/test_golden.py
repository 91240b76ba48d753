"""Recorded values of the conditional entropies, mutual divergence and
product, of every other entropy and divergence sum, of the public
finite-difference Hessian, of the two geometry properties' sweep reports
and of the whole sweep's: every one must stay bit for bit what it is.

The joints are built from Philox bits with integer arithmetic only, so the
inputs are the same everywhere. They cover positive joints and joints with
zero-mass rows along each axis, built from C and from Fortran arrays (a
Distribution stores both in C order, so each Fortran joint's values are its
C twin's), with rows of 8 cells or more, and five joints large enough for
conditional_entropy to run over several blocks. The values were recorded
before conditional_entropy streamed its blocks; those of the Fortran
joints, and the conditional entropies of specs whose rows are strided,
were recorded again when every row came to be summed contiguous. The
Hessians (as SHA-256 of their bytes, so every bit, sign bits included,
counts) and the reports were recorded while fd_hessian still summed every
displaced point of a 2n^2 + 1 row stencil exactly. The other sums were
recorded while divergence sums cut each row in steps of 2^16 cells and
tsallis_entropy summed its terms whole; the whole sweep's reports were
recorded again with the conditional entropies, and again when
metric_hessian_structure came to check the metric against the divergence
term's second derivative. The k = 1/2 sums of divergence_literal (both
forms) and tsallis_divergence over the joints with zero cells were
recorded again when they came to take divergence's rule for a cell with
p = 0 < q (it adds -q) instead of skipping it. The tsallis_divergence sums
were recorded again when its terms came to be the divergence terms at
2k = 1 - q, from ln q - ln p instead of ln(q/p). `python tests/test_golden.py`
rewrites the file and prints each key whose value it changes.
They are compared only where numpy's elementary functions give the bits
they gave where recorded.
"""

import decimal
import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from entrokit import DeformParams, conditional_entropy, divergence, divergence_literal, entropy
from entrokit import entropy_literal, fd_hessian, kl_divergence, log_sum_gap, make_distribution
from entrokit import make_joint2, make_joint3, mutual_divergence, product, shannon_entropy
from entrokit import tsallis_divergence, tsallis_entropy
from entrokit.verify import SweepConfig, run_suite

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
KS = (0.25, 0.1, 0.45)
# key prefixes of the Hessian, report, sum and whole-sweep pins; every other
# key is a joint's
PINS = ("fd_hessian", "report", "sums", "suite")
GEOMETRY = ("hessian_separability", "metric_oracle_agreement")


def _weights(seed: int, shape) -> np.ndarray:
    """Integer cell weights 1 .. 1000 from Philox bits: the same on every platform."""
    raw = np.random.Philox(key=seed).random_raw(int(np.prod(shape)))
    return (raw % np.uint64(1000) + np.uint64(1)).astype(float).reshape(shape)


def _joint(seed: int, shape, zero_rows: bool, fortran: bool):
    w = _weights(seed, shape)
    if zero_rows:  # one empty slice along each axis, and scattered zero cells
        for axis in range(w.ndim):
            np.moveaxis(w, axis, 0)[1] = 0.0
        w[w < 120] = 0.0
    w = w / w.sum()
    if fortran:
        w = np.asfortranarray(w)
    return (make_joint2 if w.ndim == 2 else make_joint3)(w)


JOINTS = {
    f"{'x'.join(map(str, shape))}{'-zero' if zero else ''}{'-F' if f else ''}": (
        seed, shape, zero, f)
    for seed, shape in enumerate([(9, 10), (12, 8), (3, 3), (8, 9, 10), (9, 8, 11), (3, 4, 5)])
    for zero in (False, True)
    for f in (False, True)
}
# several blocks of _LEAF cells: one-row blocks, strided and copied
JOINTS.update({
    "3x40000": (20, (3, 40000), False, False),
    "3x40000-zero": (21, (3, 40000), True, False),
    "40x50x60": (22, (40, 50, 60), False, False),
    "40x50x60-zero-F": (23, (40, 50, 60), True, True),
    "2x300x300-zero": (24, (2, 300, 300), True, False),  # rows of the XZ grid split
})


def _specs(ndim: int):
    letters = "XYZ"[:ndim]
    for n_of in range(1, ndim):
        for of in itertools.permutations(letters, n_of):
            rest = [c for c in letters if c not in of]
            for n_given in range(1, len(rest) + 1):
                for given in itertools.permutations(rest, n_given):
                    yield f"{''.join(of)}_given_{''.join(given)}"


def _values() -> dict:
    out = {}
    for name, args in JOINTS.items():
        j = _joint(*args)
        for k in KS:
            params = DeformParams(k, 1.0)
            for spec in _specs(j.ndim):
                out[f"{name} {spec} {k}"] = conditional_entropy(j, params, spec).value.hex()
            if j.ndim == 2:
                out[f"{name} mutual_divergence {k}"] = mutual_divergence(j, params).value.hex()
        if j.ndim == 2:
            prod = product(j.marginal(0), j.marginal(1)).p
            out[f"{name} product"] = hashlib.sha256(prod.tobytes()).hexdigest()
    return out


def _sum_values() -> dict:
    """Every entropy and divergence sum of each joint p at KS and k = 1/2, the
    divergences from a positive joint q of the same shape and layout."""
    out = {}
    for name, (seed, shape, zero, fortran) in JOINTS.items():
        p, q = _joint(seed, shape, zero, fortran), _joint(seed + 100, shape, False, fortran)
        values = {"shannon_entropy": shannon_entropy(p), "kl_divergence": kl_divergence(p, q)}
        for k in (*KS, 0.5):
            params = DeformParams(k, 1.0)
            values[f"entropy {k}"] = entropy(p, params).value
            values[f"entropy_literal {k}"] = entropy_literal(p, params)
            values[f"tsallis_entropy {k}"] = tsallis_entropy(p, 1.0 + 2.0 * k)
            values[f"divergence {k}"] = divergence(p, q, params).value
            for form in ("pq", "qp"):
                values[f"divergence_literal {form} {k}"] = divergence_literal(p, q, params, form)
            values[f"tsallis_divergence {k}"] = tsallis_divergence(p, q, 1.0 - 2.0 * k)
            if not zero:  # log_sum_gap takes weights > 0 only
                lhs, rhs = log_sum_gap(p.p, q.p, params)
                values[f"log_sum_gap {k}"] = f"{lhs.hex()} {rhs.hex()}"
        for key, v in values.items():
            out[f"sums {name} {key}"] = v if isinstance(v, str) else v.hex()
    return out


def _fd_case(n: int, case: int):
    """A base point of n cells with weights 1 .. 1000, k in (0, 1/2] (1/2
    included) and a step drawn log-uniformly from [1e-6, 10^-2.5], or half
    of min p where that is smaller: all from Philox bits, the step in
    software decimal arithmetic, so the inputs are the same everywhere."""
    raw = np.random.Philox(key=1000 + 4 * n + case).random_raw(n + 2)
    w = (raw[:n] % np.uint64(1000) + np.uint64(1)).astype(float)
    p = w / w.sum()
    k = int(raw[n] % np.uint64(500) + np.uint64(1)) / 1000
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exponent = -decimal.Decimal(2500 + int(raw[n + 1] % np.uint64(3501))) / 1000
        h = float(decimal.Decimal(10) ** exponent)
    return p, k, min(h, float(p.min()) / 2)


def _fd_hessian_values() -> dict:
    out = {}
    for n in range(2, 61):
        for case in range(3):
            p, k, h = _fd_case(n, case)
            hess = fd_hessian(make_distribution(p), DeformParams(k, 1.0), step=h)
            out[f"fd_hessian n={n} case={case}"] = hashlib.sha256(hess.tobytes()).hexdigest()
    return out


def _report_values() -> dict:
    out = {}
    for seed in range(3):
        report = run_suite(SweepConfig(seed=seed, trials=1000, properties=GEOMETRY)).to_json()
        out[f"report seed={seed}"] = hashlib.sha256(report.encode()).hexdigest()
    return out


def _suite_values() -> dict:
    out = {}
    for seed in range(3):
        report = run_suite(SweepConfig(seed=seed, trials=1000)).to_json()
        out[f"suite seed={seed}"] = hashlib.sha256(report.encode()).hexdigest()
    return out


def _libm() -> str:
    """SHA-256 of np.log, np.expm1 and np.power at 8192 points of (0, 1]: the
    recorded values hold where these elementary functions give the same bits
    as where they were recorded (numpy picks its SIMD code by CPU)."""
    x = np.ldexp(np.arange(1.0, 4097.0), -12)
    x = np.concatenate([x, x * 2.0**-12])
    parts = [np.log(x)] + [np.expm1(2 * k * np.log(x)) for k in KS]
    parts += [np.power(x, 2 * k + 1) for k in KS]
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


def test_specs_cover_every_axis_choice():
    assert len(list(_specs(2))) == 2
    assert len(list(_specs(3))) == 18


def _group(key: str):
    first = key.split()[0]
    return first if first in PINS else None


def _assert_unchanged(values: dict, prefix) -> None:
    """values must be the recorded ones whose keys start with prefix (None:
    the joints' keys)."""
    want = json.loads(GOLDEN.read_text())
    if want.pop("libm") != _libm():
        pytest.skip("numpy's log, expm1 or power give other bits here than where recorded")
    want = {key: v for key, v in want.items() if _group(key) == prefix}
    assert values.keys() == want.keys()
    moved = [key for key in want if values[key] != want[key]]
    assert not moved, f"{len(moved)} of {len(want)} moved, first {moved[:5]}"


def test_recorded_values_are_unchanged():
    _assert_unchanged(_values(), None)


def test_fd_hessian_is_unchanged():
    _assert_unchanged(_fd_hessian_values(), "fd_hessian")


def test_geometry_reports_are_unchanged():
    _assert_unchanged(_report_values(), "report")


def test_sums_are_unchanged():
    _assert_unchanged(_sum_values(), "sums")


def test_suite_reports_are_unchanged():
    _assert_unchanged(_suite_values(), "suite")


if __name__ == "__main__":
    values = {"libm": _libm(), **_values(), **_fd_hessian_values(), **_report_values()}
    values.update({**_sum_values(), **_suite_values()})
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key in sorted(values.keys() | recorded.keys()):  # each key the rewrite changes
        if values.get(key) != recorded.get(key):
            print(key)
    GOLDEN.write_text(json.dumps(values, indent=0, sort_keys=True) + "\n")
