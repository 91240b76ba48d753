"""Seeded property-sweep engine.

A sweep evaluates each selected property of the registry (`properties`)
once for all its trials, in chunks of at most TRIAL_CHUNK trials: the
property's maker makes each chunk's instance, its law states the relation,
and `_outcome` picks each trial's worst element. The per-trial slacks are
aggregated into a report.

Randomness is counter-addressed (Philox; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11). Each property reads one Philox
stream keyed by (master seed, property name), and trial t owns the block
of the property's `width` uniforms at counter t * width / 4. So a trial is
replayed from (seed, property, trial) alone: `run_single` regenerates its
block and runs the same maker and law on a batch of one, and reports do
not depend on chunking or order. Trials run from 0 to 2^63 - 1, and each
thread re-keys one generator of its own for every batch.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .distributions import _integer, _real, _seed, _typed
from .errors import ConfigError
from .properties import (
    _KINDS,
    _SPECS,
    IDENTITY_TOL,
    INEQUALITY_TOL,
    K_RANGE,
    R_RANGE,
    SIZE_RANGE,
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
# Trials run from 0 to TRIAL_LIMIT - 1: the trial column is int64.
TRIAL_LIMIT = 2**63


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a verification sweep."""

    seed: int = 0
    trials: int = 100
    tol: float | None = None
    properties: tuple[str, ...] | None = None

    _type_error = ConfigError  # what distributions._typed raises for another type

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed(self.seed, ConfigError))
        object.__setattr__(self, "trials", _integer("trials", self.trials, ConfigError))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > TRIAL_LIMIT:
            raise ConfigError(f"trials must be <= 2**63, got {self.trials}")
        if self.tol is not None:
            tol = _real("tol", self.tol, "a real number > 0", lambda x: 0 < x < np.inf, ConfigError)
            object.__setattr__(self, "tol", tol)
        if self.properties is not None:
            names = self.properties
            if isinstance(names, str) or not np.iterable(names):
                raise ConfigError(f"properties must be an iterable of names: {names!r}")
            names = tuple(names)
            if not all(isinstance(n, str) for n in names):
                raise ConfigError(f"property names must be strings: {names!r}")
            if not names:
                raise ConfigError("properties must name at least one property")
            if "" in names:
                raise ConfigError(f"property names must be non-empty: {names!r}")
            object.__setattr__(self, "properties", names)


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


class Outcome(NamedTuple):
    """Per-trial lhs, rhs and slack columns."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray


def _outcome(kind: str, lhs, rhs, slack=None) -> Outcome:
    """Each trial's worst element of its lhs row against its rhs row, as
    (T,) columns: by the law's own slack where it gives one, else by the
    kind's slack rule. Each side is a (T, m) row, a (T, 1) column or a
    scalar, which stand for their broadcast to the slack's shape."""
    rule = _KINDS[kind]
    lv = np.asarray(lhs, dtype=float)
    s = rule.slack(lv, rhs) if slack is None else slack
    rows, worst = np.arange(len(s)), np.argmax(rule.shortfall(s), axis=1)

    def pick(a):
        a = np.asarray(a)
        if a.ndim == 0:
            return np.full(len(rows), a)
        return a[rows, worst] if a.shape[1] > 1 else a[:, 0]

    return Outcome(pick(lv), pick(rhs), pick(s))


# ---------------------------------------------------------------------------
# counter-addressed streams and chunked evaluation


def _key(seed: int, name: str) -> int:
    """The 128-bit Philox key of one property's stream under one master seed."""
    h = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16)
    return int.from_bytes(h.digest(), "big")


# One Philox generator per thread, re-keyed for every batch: constructing
# one draws a throwaway seed from the OS, several times the cost of setting
# its state; a generator shared between threads would interleave streams.
_PHILOX = threading.local()
_WORD = 2**64 - 1


def _uniforms(key: int, width: int, start: int, count: int) -> np.ndarray:
    """(count, width) uniforms in (0, 1) of trials start .. start + count - 1;
    the row of trial t is its own block, from counter t * width / 4."""
    gen = getattr(_PHILOX, "gen", None)
    if gen is None:
        gen = _PHILOX.gen = np.random.Philox()
    counter = start * width // 4
    # the state of a fresh Philox(key=key, counter=counter): key and counter
    # as little-endian 64-bit words, and an empty output buffer
    gen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [counter >> shift & _WORD for shift in (0, 64, 128, 192)],
            "key": [key & _WORD, key >> 64],
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = gen.random_raw((count, width))
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
    out: Outcome  # (T,) lhs, rhs and slack
    fields: dict  # the instance digest's fields
    shortfall: np.ndarray  # (T,) the kind's shortfall of each slack
    passed: np.ndarray  # (T,) bool

    def result(self, i: int) -> CheckResult:
        return CheckResult(
            property=self.name,
            trial_index=self.start + int(i),
            passed=bool(self.passed[i]),
            lhs=float(self.out.lhs[i]),
            rhs=float(self.out.rhs[i]),
            slack=float(self.out.slack[i]),
            instance_digest=f"seed={self.seed};{_digest(self.fields, i)}",
        )


def _evaluate(spec: PropertySpec, config: SweepConfig, start: int, count: int) -> _Chunk:
    """Trials start .. start + count - 1 of one property, as one batch."""
    u = _uniforms(_key(config.seed, spec.name), spec.width, start, count)
    trial = np.arange(count, dtype=np.int64)[:, None] + start  # int64 below TRIAL_LIMIT
    instance = spec.maker(_Draw(u), trial)
    out = _outcome(spec.kind, *spec.law(instance))
    shortfall = _KINDS[spec.kind].shortfall(out.slack)
    # a config tolerance overrides the property's
    passed = shortfall <= (config.tol or spec.tol)
    return _Chunk(spec.name, config.seed, start, out, instance.fields(spec.fields), shortfall,
                  passed)


def _chunks(spec: PropertySpec, config: SweepConfig):
    """All the sweep's trials of one property, TRIAL_CHUNK at a time."""
    for start in range(0, config.trials, TRIAL_CHUNK):
        yield _evaluate(spec, config, start, min(TRIAL_CHUNK, config.trials - start))


def run_single(config: SweepConfig, name: str, trial: int) -> CheckResult:
    """Run one (property, trial) pair: the sweep's batch evaluation on a
    batch of one, fully determined by the config seed."""
    _typed(SweepConfig, config=config)
    spec = _REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ConfigError(f"unknown property {name!r}")
    trial = _integer("trial", trial, ConfigError)
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    if trial >= TRIAL_LIMIT:
        raise ConfigError(f"trial must be < 2**63, got {trial}")
    return _evaluate(spec, config, trial, 1).result(0)


def _aggregate(spec: PropertySpec, chunks) -> PropertyReport:
    """The report of one property's chunks. Its worst slack is the slack of
    the first largest shortfall, a NaN first, as np.argmax picks it over all
    the trials: each chunk's argmax, then the first chunk whose is largest."""
    chunks = list(chunks)
    passes = sum(int(np.count_nonzero(c.passed)) for c in chunks)
    failed = ((c, i) for c in chunks for i in np.flatnonzero(~c.passed))
    failures = [c.result(i) for c, i in itertools.islice(failed, MAX_RECORDED_FAILURES)]
    tops = [int(np.argmax(c.shortfall)) for c in chunks]
    worst = int(np.argmax([c.shortfall[i] for c, i in zip(chunks, tops)]))
    return PropertyReport(
        name=spec.name,
        anchor=spec.anchor,
        kind=spec.kind,
        passes=passes,
        fails=sum(len(c.passed) for c in chunks) - passes,
        worst_slack=float(chunks[worst].out.slack[tops[worst]]),
        failures=tuple(failures),
    )


def run_suite(config: SweepConfig) -> VerificationReport:
    """Run every selected property over `trials` seeded instances."""
    _typed(SweepConfig, config=config)
    wanted = _REGISTRY.keys() if config.properties is None else set(config.properties)
    unknown = [n for n in config.properties or () if n not in _REGISTRY]
    if unknown:
        raise ConfigError(f"unknown properties: {', '.join(unknown)}")
    reports = [_aggregate(s, _chunks(s, config)) for s in _SPECS if s.name in wanted]
    return VerificationReport(config=config, properties=tuple(reports))
