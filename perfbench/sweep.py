"""`sweep` workload: the seeded property registry, as `entrokit verify` runs it.

One in-process caller runs `run_suite(SweepConfig(seed, trials))` over the
full registry at the default ranges and serializes the report with
`to_json()`. Call c uses master seed (S << 16) + c, so every call draws
fresh instances and runs with different seeds share none.
Per-trial numeric work is tiny here, so RNG setup, re-validation, Python
dispatch and the finite-difference Hessian dominate.
"""

from __future__ import annotations

import math
import statistics
import struct
from time import perf_counter

import numpy as np

import entrokit as ek
from entrokit import verify

from tracer import Tracer

TRIALS_PER_CALL = 25
# The light trace pass is `entrokit verify --trials 1000` at its default
# seed 0, whatever the run's seed, so `verify.violations` repeats exactly
# and the known taylor_expansion checker artifact (6 of 1000) stays visible.
LIGHT_CONFIG = ek.SweepConfig(seed=0, trials=1000)
# Exact counts come from this fixed sweep, whatever the run's seed.
COUNT_CONFIG = ek.SweepConfig(seed=0, trials=100)
# Chunks run both untraced and traced, for the tracing overhead.
OVERHEAD_CALLS = 4
# Untimed fd_hessian calls at n = 8; their median is reported
FD_REPEATS = 7


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class Sweep:
    name = "sweep"
    kinds = ("run_suite",)  # the calls of one rotation of the mix, in order
    segments = 8  # fresh interpreters the run is split over; see run.py

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.first: tuple | None = None  # (config, JSON) of the first call
        self.failures: list[tuple] = []  # (config, CheckResult)
        self.violations: dict[str, int] = {}

    def config(self, c: int):
        return ek.SweepConfig(seed=(self.seed << 16) + c, trials=TRIALS_PER_CALL)

    def prepare(self) -> None:
        verify.run_suite(ek.SweepConfig(seed=self.seed, trials=2)).to_json()

    def call(self, i: int):
        cfg = self.config(i)
        t0 = perf_counter()
        report = verify.run_suite(cfg)
        text = report.to_json()
        dt = perf_counter() - t0
        items = sum(p.passes + p.fails for p in report.properties)
        return dt, items, (cfg, report, text)

    def check_call(self, i: int, out) -> str | None:
        cfg, report, text = out
        if self.first is None:
            self.first = (cfg, text)
        problems = []
        for p in report.properties:
            if p.passes + p.fails != cfg.trials:
                problems.append(f"{p.name}: {p.passes}+{p.fails} != {cfg.trials} trials")
            if not math.isfinite(p.worst_slack):
                problems.append(f"{p.name}: non-finite worst slack {p.worst_slack!r}")
            self.violations[p.name] = self.violations.get(p.name, 0) + p.fails
            self.failures.extend((cfg, f) for f in p.failures)
        return "; ".join(problems) or None

    def final_checks(self) -> list[str]:
        problems = []
        if self.first is not None:
            cfg, text = self.first
            if verify.run_suite(cfg).to_json() != text:
                problems.append(f"sweep: re-running seed {cfg.seed} gave different JSON")
        problems.extend(replay_failures(self.failures))
        return problems

    def summary(self) -> dict:
        return violation_summary(self.violations)

    # -- traced run -------------------------------------------------------

    def trace(self, seconds: float | None):
        """Per-layer metrics; the fully traced pass runs for `seconds` if given."""
        metrics, problems = {}, []
        trials_each = TRIALS_PER_CALL * len(verify.list_properties())

        # 1. light pass: only run_single and to_json carry spans
        light = Tracer(record=False).install({"verify.run_single", "verify.to_json"})
        with light:
            t0 = perf_counter()
            report = verify.run_suite(LIGHT_CONFIG)
            report.to_json()
            suite_s = perf_counter() - t0
        for name, _, _ in verify.list_properties():
            calls, incl, _, _ = light.matching(lambda k, n=name: k == f"verify.run_single:{n}")
            metrics[f"verify.property_us.{name}"] = 1e6 * incl / max(calls, 1)
        metrics["verify.suite_s_per_1000_trials"] = suite_s * 1000 / LIGHT_CONFIG.trials
        _, to_json_s, _, _ = light.matching(lambda k: k == "verify.to_json")
        metrics["verify.to_json_ms"] = 1e3 * to_json_s
        counts = {p.name: p.fails for p in report.properties}
        metrics["verify.violations"] = sum(counts.values())
        light_failures = [(report.config, f) for p in report.properties for f in p.failures]
        problems.extend(replay_failures(light_failures))

        # 2. exact counts, on a fixed sweep so they repeat on every run
        counter = Tracer(record=False).install()
        with counter:
            verify.run_suite(COUNT_CONFIG)
        metrics.update(_count_metrics(counter, COUNT_CONFIG.trials * len(report.properties)))
        metrics.update(_fd_hessian_n8())

        # 3. the same chunks untraced, then traced (for `seconds` if given)
        untraced_s, texts = 0.0, []
        for c in range(OVERHEAD_CALLS):
            dt, _, (_, _, text) = self.call(c)
            untraced_s += dt
            texts.append(text)
        full = Tracer().install()
        calls, traced_s = 0, 0.0
        with full:
            started = perf_counter()
            while calls < OVERHEAD_CALLS or (
                seconds is not None and perf_counter() - started < seconds
            ):
                dt, _, (_, _, text) = self.call(calls)
                if calls < OVERHEAD_CALLS:
                    traced_s += dt
                    if text != texts[calls]:
                        problems.append(f"sweep: traced chunk {calls} changed the report")
                calls += 1
        metrics.update(_time_metrics(full, calls * trials_each))
        metrics["trace.sweep_trials_per_s_untraced"] = OVERHEAD_CALLS * trials_each / untraced_s
        metrics["trace.sweep_trials_per_s_traced"] = OVERHEAD_CALLS * trials_each / traced_s
        info = {"violations": violation_summary(counts), "light_trials": LIGHT_CONFIG.trials,
                "traced_calls": calls}
        return metrics, problems, 2 + OVERHEAD_CALLS + calls, {"sweep": full.dump()}, info


def _fd_hessian_n8() -> dict:
    """fd_hessian at n = 8, the size the ROADMAP baseline quotes: untraced
    time, and the divergence_sum calls one Hessian makes (2n^2 + 1 today)."""
    e = np.random.default_rng(0).exponential(size=8)
    p = ek.make_distribution(0.5 * e / e.sum() + 0.5 / 8)
    params = ek.DeformParams(0.25, 1.0)
    times = []
    for _ in range(FD_REPEATS):
        t0 = perf_counter()
        ek.fd_hessian(p, params)
        times.append(perf_counter() - t0)
    with Tracer(record=False).install() as t:
        ek.fd_hessian(p, params)
    return {
        "geometry.fd_hessian_n8_ms": 1e3 * statistics.median(times),
        "geometry.divergence_sum_calls_per_fd_hessian": t.edge_calls(
            "geometry.fd_hessian", "divergence.divergence_sum"),
    }


def replay_failures(failures) -> list[str]:
    """Every recorded failure must replay through run_single to the same slack."""
    problems = []
    for cfg, f in failures:
        again = verify.run_single(cfg, f.property, f.trial_index)
        if again.passed or _bits(again.slack) != _bits(f.slack) or (
            again.instance_digest != f.instance_digest
        ):
            problems.append(
                f"sweep: {f.property} trial {f.trial_index} replayed to "
                f"slack {again.slack!r}, recorded {f.slack!r}"
            )
    return problems


def violation_summary(counts: dict[str, int]) -> dict:
    return {
        "total": sum(counts.values()),
        "by_property": {k: v for k, v in counts.items() if v},
    }


def _is_construction(key: str) -> bool:
    """A validated construction: the __post_init__ of a distributions class."""
    return key.startswith("distributions.") and key.split(".")[1][:1].isupper()


def _count_metrics(t: Tracer, trials: int) -> dict:
    objects = t.matching(_is_construction)[0]
    out = {"distributions.objects_per_trial": objects / trials}
    for layer in ("entropy", "divergence", "deformed_log"):
        out[f"{layer}.calls_per_trial"] = t.layer(layer)[0] / trials
    return out


def _time_metrics(t: Tracer, trials: int) -> dict:
    us = 1e6 / trials
    out = {
        "verify.rng_us_per_trial": t.layer("rng")[2] * us,
        "verify.self_us_per_trial": t.matching(
            lambda k: k.startswith("verify.") and k != "verify.to_json"
        )[2] * us,
        "distributions.validate_us_per_trial": t.matching(
            lambda k: _is_construction(k) or k.startswith("distributions.make_")
        )[2] * us,
        "distributions.sample_us_per_trial": t.matching(
            lambda k: k.startswith("distributions.sample_")
        )[2] * us,
        "geometry.fd_hessian_us_per_trial": t.matching(
            lambda k: k == "geometry.fd_hessian"
        )[1] * us,
    }
    for layer in ("entropy", "divergence", "deformed_log"):
        out[f"{layer}.us_per_trial"] = t.layer(layer)[2] * us
    return out
