"""`bulk` workload: library calls on large user data.

A closed loop with one caller. Each call builds its inputs from raw arrays
with the public constructors and evaluates one kernel; the seven calls of
the mix run in a fixed rotation, each with one of three fixed (k, r) pairs. The
kernels and their summation do almost all the work: validation is a
linear pass and the sweep engine and its RNG do none. Every array is
8 MiB (the 128^3 tensor 16 MiB): beyond L2, inside L3.

Each call's value is checked outside the timed region: later calls of
each (kernel, parameters) pair bit for bit against the first, as they
run; the kept first values, once the timed loop is over, against an
independent evaluation of the closed-form terms summed with math.fsum.
The references allocate far more than the kernels do, so they run after
the measuring interpreter's peak memory is read.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import entrokit as ek

from common import cache_sizes
from tracer import Tracer

N = 1 << 20
SIDE2 = 1 << 10  # 1024 x 1024 joint
SIDE3 = 1 << 7  # 128^3 tensor
# Fixed (k, r) pairs across the domain: kernel cost depends on k (expm1
# and log take different paths), so seed-drawn parameters would make the
# cost of a run depend on its seed. The seed draws the arrays.
PARAMS = ((0.1, 0.5), (0.25, 1.0), (0.4, 1.5))
REL_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    name: str
    layer: str  # the module whose function the call evaluates
    inputs: tuple[str, ...]  # raw arrays the call builds from
    build: Callable
    evaluate: Callable
    reference: Callable


def _simplex(rng, size: int) -> np.ndarray:
    e = rng.exponential(size=size) + 1e-300
    return e / e.sum()


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.ravel().tolist())


# Independent references. They use powers (entropy, divergence) and sinh
# (ln_kr) where the library uses log/expm1, and sum exactly with fsum.

def _entropy_terms(p: np.ndarray, k: float) -> np.ndarray:
    return p * (1.0 - np.power(p, 2.0 * k)) / (2.0 * k)


def _ref_entropy(raw, k, r):
    return _fsum(_entropy_terms(raw["p"], k))


def _ref_divergence(raw, k, r, p=None, q=None):
    p = raw["p"] if p is None else p
    q = raw["q"] if q is None else q
    return _fsum((p - np.power(p, 1.0 - 2.0 * k) * np.power(q, 2.0 * k)) / (2.0 * k))


def _ref_ln_kr(raw, k, r):
    lx = np.log(raw["x"])
    return np.sinh(k * lx) * np.exp(-r * lx) / k


def _ref_conditional(rows: np.ndarray, k: float) -> float:
    """sum over rows of p(row)^{2k+1} S(cols | row) for a (rows, cols) matrix."""
    prow = rows.sum(axis=1)
    cond = rows / prow[:, None]
    return _fsum(np.power(prow, 2.0 * k + 1.0)[:, None] * _entropy_terms(cond, k))


def _ref_mutual(raw, k, r):
    m = raw["m"]
    prod = np.outer(m.sum(axis=1), m.sum(axis=0))
    return _ref_divergence(raw, k, r, p=m, q=prod)


def _y_given_xz(t: np.ndarray) -> np.ndarray:
    nx, ny, nz = t.shape
    return np.transpose(t, (0, 2, 1)).reshape(nx * nz, ny)


def _ref_fisher(raw, k, r):
    return (1.0 - 2.0 * k) / raw["base"]


OPS = (
    Op("entropy", "entropy", ("p",),
       lambda raw: (ek.make_distribution(raw["p"]),),
       lambda a, prm: ek.entropy(a[0], prm).value, _ref_entropy),
    Op("divergence", "divergence", ("p", "q"),
       lambda raw: (ek.make_distribution(raw["p"]), ek.make_distribution(raw["q"])),
       lambda a, prm: ek.divergence(a[0], a[1], prm).value, _ref_divergence),
    Op("ln_kr", "deformed_log", ("x",),
       lambda raw: (raw["x"],),
       lambda a, prm: ek.ln_kr(a[0], prm), _ref_ln_kr),
    Op("conditional_entropy", "entropy", ("m",),
       lambda raw: (ek.make_joint2(raw["m"]),),
       lambda a, prm: ek.conditional_entropy(a[0], prm, "Y_given_X").value,
       lambda raw, k, r: _ref_conditional(raw["m"], k)),
    Op("mutual_divergence", "divergence", ("m",),
       lambda raw: (ek.make_joint2(raw["m"]),),
       lambda a, prm: ek.mutual_divergence(a[0], prm).value, _ref_mutual),
    Op("conditional_entropy3", "entropy", ("t",),
       lambda raw: (ek.make_joint3(raw["t"]),),
       lambda a, prm: ek.conditional_entropy3(a[0], prm, "Y_given_XZ").value,
       lambda raw, k, r: _ref_conditional(_y_given_xz(raw["t"]), k)),
    Op("fisher_metric", "geometry", ("base",),
       lambda raw: (ek.make_distribution(raw["base"]),),
       lambda a, prm: ek.fisher_metric(a[0], prm).g, _ref_fisher),
)

KERNEL_LAYERS = ("entropy", "divergence", "deformed_log", "geometry")


def _close(value, ref) -> bool:
    v = np.asarray(value, dtype=float)
    rv = np.asarray(ref, dtype=float)
    if v.shape != rv.shape or not np.all(np.isfinite(v)):
        return False
    scale = np.maximum(np.abs(rv), 1e-300)
    return bool(np.all(np.abs(v - rv) <= REL_TOL * scale))


def _fingerprint(value) -> bytes:
    if isinstance(value, np.ndarray):
        return hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16).digest()
    return np.float64(value).tobytes()


class Bulk:
    name = "bulk"
    kinds = tuple(op.name for op in OPS)  # the calls of one rotation of the mix, in order
    segments = 1  # numpy-bound: the interpreter layout moves it by under 3%

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.raw: dict[str, np.ndarray] = {}
        self.seen: dict[tuple[str, int], bytes] = {}
        self.first: dict[tuple[str, int], object] = {}  # unchecked first values

    def prepare(self) -> None:
        self.raw = {}  # free the previous inputs before drawing new ones
        rng = np.random.default_rng(self.seed)
        self.raw = {
            "p": _simplex(rng, N),
            "q": _simplex(rng, N),
            "x": np.exp(rng.uniform(-12.0, 12.0, size=N)),
            "m": _simplex(rng, SIDE2 * SIDE2).reshape(SIDE2, SIDE2),
            "t": _simplex(rng, SIDE3 ** 3).reshape(SIDE3, SIDE3, SIDE3),
            "base": _simplex(rng, N),
        }
        for i in range(len(OPS)):  # warm-up: one pass of the mix
            self.call(i)

    def elements(self, op: Op) -> int:
        return sum(self.raw[name].size for name in op.inputs)

    def _pick(self, i: int):
        return OPS[i % len(OPS)], (i // len(OPS)) % len(PARAMS)

    def call(self, i: int):
        op, pi = self._pick(i)
        k, r = PARAMS[pi]
        t0 = perf_counter()
        args = op.build(self.raw)
        value = op.evaluate(args, ek.DeformParams(k, r))
        dt = perf_counter() - t0
        return dt, self.elements(op), value

    def check_call(self, i: int, value) -> str | None:
        op, pi = self._pick(i)
        key = (op.name, pi)
        fp = _fingerprint(value)
        known = self.seen.get(key)
        if known is None:
            self.seen[key] = fp
            self.first[key] = value
        elif fp != known:
            return f"{op.name} (params {pi}) changed between identical calls"
        return None

    def final_checks(self) -> list[str]:
        """The kept first values against the fsum references, then the chain
        rule S(X,Y) = S(X) + S(Y|X) on the joint, for every parameter pair."""
        problems = []
        ops = {op.name: op for op in OPS}
        for (name, pi), value in self.first.items():
            k, r = PARAMS[pi]
            if not _close(value, ops[name].reference(self.raw, k, r)):
                problems.append(f"{name} (k={k!r}, r={r!r}) differs from the fsum reference")
        self.first.clear()
        j = ek.make_joint2(self.raw["m"])
        for k, r in PARAMS:
            prm = ek.DeformParams(k, r)
            lhs = ek.joint_entropy(j, prm).value
            rhs = ek.entropy(j.marginal_x(), prm).value + ek.conditional_entropy(j, prm).value
            if abs(lhs - rhs) > REL_TOL * max(1.0, abs(lhs), abs(rhs)):
                problems.append(f"bulk: chain rule off by {lhs - rhs!r} at k={k!r}")
        return problems

    def summary(self) -> dict:
        return {
            "array_bytes": {name: a.nbytes for name, a in self.raw.items()},
            "llc": cache_sizes().get("L3"),
        }

    # -- traced run -------------------------------------------------------

    def trace(self, seconds: float | None):
        """Per-layer metrics; the traced loop runs for `seconds` if given."""
        if not self.raw:
            self.prepare()
        problems = []
        elems = dict.fromkeys(KERNEL_LAYERS, 0)
        tracer = Tracer().install()
        calls = 0
        with tracer:
            started = perf_counter()
            while calls < len(OPS) or (
                seconds is not None and perf_counter() - started < seconds
            ):
                tracer.trial = calls
                _, n, value = self.call(calls)
                op, _ = self._pick(calls)
                elems[op.layer] += n
                problem = self.check_call(calls, value)
                if problem:
                    problems.append(problem)
                calls += 1
        metrics = {}
        for layer in KERNEL_LAYERS:
            metrics[f"{layer}.ns_per_elem"] = 1e9 * tracer.layer(layer)[2] / elems[layer]
        _, _, validate_s, validated = tracer.layer("distributions")
        metrics["distributions.validate_ns_per_elem"] = 1e9 * validate_s / validated
        metrics.update(self._computed_bytes())
        problems.extend(self.final_checks())
        return metrics, problems, calls, {"bulk": tracer.dump()}, self.summary()

    def _computed_bytes(self) -> dict:
        """Peak bytes the evaluation allocates (tracemalloc), per input element.

        Computed from the sizes of the arrays and lists the kernel creates,
        not measured memory traffic.
        """
        peak = dict.fromkeys(KERNEL_LAYERS[:3], 0)
        elems = dict.fromkeys(KERNEL_LAYERS[:3], 0)
        k, r = PARAMS[0]
        prm = ek.DeformParams(k, r)
        for op in OPS:
            if op.layer not in peak:
                continue
            args = op.build(self.raw)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                op.evaluate(args, prm)
                peak[op.layer] += tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            elems[op.layer] += self.elements(op)
        return {f"{layer}.computed_bytes_per_elem": peak[layer] / elems[layer] for layer in peak}
