"""Recorded values of the conditional entropies, mutual divergence and
product: every one must stay bit for bit what it is.

The joints are built from Philox bits with integer arithmetic only, so the
inputs are the same everywhere. They cover positive joints and joints with
zero-mass rows along each axis, in C and Fortran layout (so each spec meets
both a strided view and a copy of the joint), with rows of 8 cells or
more, and five joints large enough for conditional_entropy to run over
several blocks. The values were recorded before conditional_entropy
streamed its blocks; `python tests/test_golden.py` rewrites the file.
They are compared only where numpy's elementary functions give the bits
they gave where recorded.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from entrokit import DeformParams, conditional_entropy, make_joint2, make_joint3
from entrokit import mutual_divergence, product

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
KS = (0.25, 0.1, 0.45)


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
# several blocks of _EXACT_CHUNK cells: one-row blocks, strided and copied
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


def test_recorded_values_are_unchanged():
    want = json.loads(GOLDEN.read_text())
    if want.pop("libm") != _libm():
        pytest.skip("numpy's log, expm1 or power give other bits here than where recorded")
    values = _values()
    assert values.keys() == want.keys()
    moved = [key for key in want if values[key] != want[key]]
    assert not moved, f"{len(moved)} of {len(want)} moved, first {moved[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"libm": _libm(), **_values()}, indent=0, sort_keys=True) + "\n")
