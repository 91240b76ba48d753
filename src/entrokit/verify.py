"""Seeded property-sweep engine.

A sweep evaluates each selected property of the registry (`properties`)
once for all its trials, in chunks of at most TRIAL_CHUNK trials, and
aggregates the per-trial slacks into a report.

Randomness is counter-addressed (Philox; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11). Each property reads one Philox
stream keyed by (master seed, property name), and trial t owns the block
of the property's `width` uniforms at counter t * width / 4. So a trial is
replayed from (seed, property, trial) alone: `run_single` regenerates its
block and runs the same batched check on a batch of one, and reports do
not depend on chunking or order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import asdict, dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .properties import (
    _KINDS,
    _SPECS,
    IDENTITY_TOL,
    INEQUALITY_TOL,
    K_RANGE,
    R_RANGE,
    SIZE_RANGE,
    Outcome,
    PropertySpec,
    _Draw,
)

__all__ = [
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "SweepConfig",
    "CheckResult",
    "PropertyReport",
    "VerificationReport",
    "list_properties",
    "run_single",
    "run_suite",
]

TRIAL_CHUNK = 256  # trials per batch; larger batches gain little speed and hold more memory
MAX_RECORDED_FAILURES = 10


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a verification sweep."""

    seed: int = 0
    trials: int = 100
    tol: float | None = None
    properties: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        tol = self.tol
        usable = isinstance(tol, Real) and not isinstance(tol, bool) and 0 < tol < np.inf
        if tol is not None and not usable:
            raise ConfigError(f"tol must be a real number > 0, got {tol!r}")
        if self.properties is not None:
            names = self.properties
            if isinstance(names, str) or not np.iterable(names):
                raise ConfigError(f"properties must be an iterable of names: {names!r}")
            names = tuple(names)
            if not all(isinstance(n, str) for n in names):
                raise ConfigError(f"property names must be strings: {names!r}")
            if not names:
                raise ConfigError("properties must name at least one property")
            object.__setattr__(self, "properties", names)


def _integer(field: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class CheckResult:
    property: str
    trial_index: int
    passed: bool
    lhs: float
    rhs: float
    slack: float
    instance_digest: str


@dataclass(frozen=True)
class PropertyReport:
    name: str
    anchor: str
    kind: str
    passes: int
    fails: int
    worst_slack: float
    failures: tuple[CheckResult, ...]


@dataclass(frozen=True)
class VerificationReport:
    config: SweepConfig
    properties: tuple[PropertyReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.fails == 0 for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "size_range": list(SIZE_RANGE),
                "k_range": list(K_RANGE),
                "r_range": list(R_RANGE),
                "tol": self.config.tol,
                "properties": [p.name for p in self.properties],
            },
            "properties": [
                {
                    "name": p.name,
                    "anchor": p.anchor,
                    "kind": p.kind,
                    "pass": p.passes,
                    "fail": p.fails,
                    "worst_slack": p.worst_slack,
                    "failures": [asdict(f) for f in p.failures],
                }
                for p in self.properties
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _outcome(kind: str, lhs, rhs, fields: dict) -> Outcome:
    """Each trial's worst element of its lhs row against its rhs row under
    the kind's slack rule."""
    rule = _KINDS[kind]
    lv, rv = np.broadcast_arrays(np.asarray(lhs, dtype=float), rhs)
    s = rule.slack(lv, rv)
    worst = np.argmax(rule.shortfall(s), axis=1)[:, None]
    return Outcome(*(np.take_along_axis(a, worst, axis=1) for a in (lv, rv, s)), fields)


# ---------------------------------------------------------------------------
# counter-addressed streams and chunked evaluation


def _key(seed: int, name: str) -> int:
    """The 128-bit Philox key of one property's stream under one master seed."""
    h = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16)
    return int.from_bytes(h.digest(), "big")


def _uniforms(key: int, width: int, start: int, count: int) -> np.ndarray:
    """(count, width) uniforms in (0, 1) of trials start .. start + count - 1;
    the row of trial t is its own block, from counter t * width / 4."""
    raw = np.random.Philox(key=key, counter=start * width // 4).random_raw((count, width))
    # the top 52 bits b as the mantissa of 1 + b 2^-52, less 1 - 2^-53: exactly
    # (b + 1/2) 2^-52 (Sterbenz), centred so that no draw is 0 or 1
    raw >>= np.uint64(12)
    raw |= np.uint64(0x3FF0000000000000)
    u = raw.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


_REGISTRY: dict[str, PropertySpec] = {s.name: s for s in _SPECS}


def list_properties() -> list[tuple[str, str, str]]:
    """All registered properties as (name, anchor, kind) in run order."""
    return [(s.name, s.anchor, s.kind) for s in _SPECS]


def _digest(fields: dict, i: int) -> str:
    """The instance digest of row i: each field's value in that trial."""
    parts = []
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value[i].item() if value[i].size == 1 else tuple(value[i].tolist())
        parts.append(f"{name}={value}")
    return ";".join(parts)


class _Chunk(NamedTuple):
    """Consecutive trials of one property, evaluated as one batch."""

    name: str
    seed: int
    start: int
    out: Outcome  # (T,) lhs, rhs and slack, and the digest fields
    passed: np.ndarray  # (T,) bool

    def result(self, i: int) -> CheckResult:
        return CheckResult(
            property=self.name,
            trial_index=self.start + int(i),
            passed=bool(self.passed[i]),
            lhs=float(self.out.lhs[i]),
            rhs=float(self.out.rhs[i]),
            slack=float(self.out.slack[i]),
            instance_digest=f"seed={self.seed};{_digest(self.out.fields, i)}",
        )


def _evaluate(spec: PropertySpec, config: SweepConfig, start: int, count: int) -> _Chunk:
    """Trials start .. start + count - 1 of one property, as one batch."""
    u = _uniforms(_key(config.seed, spec.name), spec.width, start, count)
    out = spec.fn(_Draw(u), np.arange(start, start + count)[:, None])
    if not isinstance(out, Outcome):
        out = _outcome(spec.kind, *out)
    out = Outcome(*(np.ravel(a) for a in out[:3]), out.fields)
    # a config tolerance overrides the property's
    passed = _KINDS[spec.kind].shortfall(out.slack) <= (config.tol or spec.tol)
    return _Chunk(spec.name, config.seed, start, out, passed)


def _chunks(spec: PropertySpec, config: SweepConfig):
    """All the sweep's trials of one property, TRIAL_CHUNK at a time."""
    for start in range(0, config.trials, TRIAL_CHUNK):
        yield _evaluate(spec, config, start, min(TRIAL_CHUNK, config.trials - start))


def run_single(config: SweepConfig, name: str, trial: int) -> CheckResult:
    """Run one (property, trial) pair: the sweep's batch evaluation on a
    batch of one, fully determined by the config seed."""
    spec = _REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ConfigError(f"unknown property {name!r}")
    trial = _integer("trial", trial)
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    return _evaluate(spec, config, trial, 1).result(0)


def _aggregate(spec: PropertySpec, chunks) -> PropertyReport:
    chunks = list(chunks)
    slack = np.concatenate([c.out.slack for c in chunks])
    passes = sum(int(c.passed.sum()) for c in chunks)
    failed = ((c, i) for c in chunks for i in np.flatnonzero(~c.passed))
    failures = [c.result(i) for c, i in itertools.islice(failed, MAX_RECORDED_FAILURES)]
    return PropertyReport(
        name=spec.name,
        anchor=spec.anchor,
        kind=spec.kind,
        passes=passes,
        fails=len(slack) - passes,
        worst_slack=float(slack[np.argmax(_KINDS[spec.kind].shortfall(slack))]),
        failures=tuple(failures),
    )


def run_suite(config: SweepConfig) -> VerificationReport:
    """Run every selected property over `trials` seeded instances."""
    wanted = _REGISTRY.keys() if config.properties is None else set(config.properties)
    unknown = [n for n in config.properties or () if n not in _REGISTRY]
    if unknown:
        raise ConfigError(f"unknown properties: {', '.join(unknown)}")
    reports = [_aggregate(s, _chunks(s, config)) for s in _SPECS if s.name in wanted]
    return VerificationReport(config=config, properties=tuple(reports))
