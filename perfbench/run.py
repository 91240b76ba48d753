"""entrokit benchmark: the sweep, bulk and cli workloads, end to end or traced.

    python3 perfbench/run.py --workload {sweep,bulk,cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from `src/` next to this
directory and nowhere else.

--trace 0 measures the chosen workload untraced for S seconds, split over
the workload's segments: fresh interpreters run one after another, each
under its own fixed PYTHONHASHSEED. On the dispatch-bound sweep one
interpreter runs up to 30% faster or slower than the next with identical
input (its memory and string-hash layout differ), so a single process
would measure one layout; the median over several averages it out of
comparisons between commits.

--trace 1 traces every layer, in memory, from this directory's own code:
the chosen workload's part runs traced for S seconds and the other two
parts run one fixed pass each, so every per-layer metric is printed on
every workload.

Spans and the full result go to `.bench_out/` at the checkout root.
Everything before the last line of stdout is for people; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "bulk", "cli")
SETUP_REPEATS = 3
# Slack for an interpreter's start, set-up and checks beyond its share of --seconds
SEGMENT_SLACK_S = 120
# Interpreter j numbers its calls from j * SEGMENT_STRIDE, so every
# interpreter draws its own instances; a multiple of every mix's length
# (7) and of bulk's parameter rotation (3 x 7) keeps each rotation aligned.
SEGMENT_STRIDE = 4200

# How the generic end-to-end names read on each workload
ALIASES = {
    "sweep": {"items_per_s": ("sweep_trials_per_s", 1.0, "1/s")},
    "bulk": {
        "items_per_s": ("bulk_melem_per_s", 1e-6, "Melem/s"),
        "call_p50_ms": ("bulk_call_p50_ms", 1.0, "ms"),
        "call_tail_ms": ("bulk_call_tail_ms", 1.0, "ms"),
    },
    "cli": {
        "call_p50_ms": ("cli_call_p50_ms", 1.0, "ms"),
        "call_tail_ms": ("cli_call_tail_ms", 1.0, "ms"),
    },
}


def declared_units(section: str) -> dict[str, str]:
    """Unit of each metric the benchmark declares in one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--segment", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2**40):
        ap.error("--seed must lie in [0, 2**40)")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _workload_classes():
    from bulk import Bulk
    from climix import CliMix
    from sweep import Sweep

    return {"sweep": Sweep, "bulk": Bulk, "cli": CliMix}


# -- one segment: a fresh interpreter measuring part of the run -------------

def segment(args, import_s: float, work: Path) -> dict:
    w = _workload_classes()[args.workload](args.seed, work)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        w.prepare()
        prepare_s.append(perf_counter() - t0)

    # Stop only at the end of a whole rotation of the mix, so every kind of
    # call is equally represented in the pooled percentiles.
    by_kind: dict[str, list[float]] = {}
    items_of: dict[str, int] = {}
    problems, attempted = [], 0
    base = args.segment * SEGMENT_STRIDE
    started = perf_counter()
    while attempted % len(w.kinds) or perf_counter() - started < args.seconds:
        i, attempted = base + attempted, attempted + 1
        kind = w.kinds[i % len(w.kinds)]
        try:
            dt, n, out = w.call(i)
            problem = w.check_call(i, out)
        except Exception:  # a failed operation is counted, not fatal
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            problems.append(problem)
        else:
            by_kind.setdefault(kind, []).append(dt)
            items_of[kind] = n
    # Peak memory of the measured calls only: the deferred output checks
    # below allocate on their own and must not set the high-water mark.
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    problems.extend(w.final_checks())
    return {
        "setup_s": import_s + statistics.median(prepare_s),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "by_kind": by_kind,
        "items_of": items_of,
        "attempted": attempted,
        "problems": problems,
        "rss_mb": rss_mb,
        "summary": w.summary(),
    }


def run_segments(args, cls) -> list[dict]:
    from common import child_env

    segments = []
    for j in range(cls.segments):
        env = child_env(SRC)
        env["PYTHONHASHSEED"] = str(j)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds / cls.segments),
                "--trace", "0", "--segment", str(j)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=args.seconds / cls.segments + SEGMENT_SLACK_S)
        if done.returncode != 0:
            raise RuntimeError(f"segment {j} exited {done.returncode}: {done.stderr[-2000:]}")
        segments.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return segments


def end_to_end(args) -> tuple[dict, dict]:
    from common import timing_summary

    cls = _workload_classes()[args.workload]
    segments = run_segments(args, cls)
    by_kind: dict[str, list[float]] = {}
    items_of: dict[str, int] = {}
    problems = []
    for seg in segments:
        for kind, samples in seg["by_kind"].items():
            by_kind.setdefault(kind, []).extend(samples)
        items_of.update(seg["items_of"])
        problems.extend(seg["problems"])

    times = [dt for samples in by_kind.values() for dt in samples]
    summary = timing_summary(times) if len(times) >= 2 else None
    # Rate of one rotation at each kind's median cost: the work of the mix
    # over its time, robust to a stray slow call.
    cycle_s = sum(statistics.median(v) for v in by_kind.values())
    metrics = {
        "setup_s": statistics.median(seg["setup_s"] for seg in segments),
        "items_per_s": sum(items_of.values()) / cycle_s if cycle_s else 0.0,
        "call_p50_ms": 1e3 * summary["p50"] if summary else 0.0,
        "call_tail_ms": 1e3 * summary["tail"] if summary else 0.0,
        "peak_rss_mb": max(seg["rss_mb"] for seg in segments),
    }
    info = {
        "attempted": sum(seg["attempted"] for seg in segments),
        "problems": problems,
        "calls": summary,
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "segments": [
            {"median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in seg["by_kind"].items()},
             **{k: seg[k] for k in ("setup_s", "import_s", "prepare_s", "rss_mb", "attempted",
                                    "summary")}}
            for seg in segments
        ],
    }
    return metrics, info


def traced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    metrics, problems, attempted, dumps, parts = {}, [], 0, {}, {}
    for name, cls in _workload_classes().items():
        part = cls(seed, work)
        m, p, n, d, info = part.trace(seconds if name == workload else None)
        metrics.update(m)
        problems.extend(p)
        attempted += n
        dumps.update(d)
        parts[name] = info
    return metrics, {"attempted": attempted, "problems": problems, "parts": parts,
                     "spans": dumps}


def report(args, metrics: dict, info: dict) -> None:
    from common import machine_facts

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise KeyError(f"metrics differ from BENCHMARK.json: measured but not declared "
                       f"{sorted(set(metrics) - set(units))}, declared but not measured "
                       f"{sorted(set(units) - set(metrics))}")

    failed = len(info["problems"])
    attempted = max(info["attempted"], 1)
    machine = machine_facts(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = info.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
    record = {"args": vars(args), "machine": machine, "metrics": metrics, **info}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2))

    print(f"machine: {json.dumps(machine)}")
    for problem in info["problems"][:20]:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
        if not args.trace and name in ALIASES[args.workload]:
            alias, scale, unit = ALIASES[args.workload][name]
            print(f"{args.workload}: {alias} = {value * scale:.6g} {unit}")
    if args.trace:
        for name, part in info["parts"].items():
            print(f"trace {name}: {json.dumps(part)}")
    else:
        calls = info["calls"] or {}
        print(f"{args.workload}: tail is p{calls.get('tail_pct')} of "
              f"{calls.get('samples')} calls over {len(info['segments'])} interpreters")
        by_kind = {k: round(v, 3) for k, v in info["median_ms_by_kind"].items()}
        print(f"{args.workload}: median ms by kind {json.dumps(by_kind)}")
        for j, seg in enumerate(info["segments"]):
            print(f"{args.workload}: interpreter {j}: {json.dumps(seg['summary'])}")
    print(f"{args.workload}: failed_frac = {failed / attempted:.3g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entrokit" / "__init__.py").is_file():
        print(f"error: no entrokit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import entrokit

    if args.workload == "cli":
        import entrokit.cli  # noqa: F401  (part of what a CLI user's process imports)
    import_s = perf_counter() - t0
    if not Path(entrokit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported entrokit from {entrokit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.segment is not None:
            print(json.dumps(segment(args, import_s, work)))
            return 0
        if args.trace:
            metrics, info = traced(args.workload, args.seed, args.seconds, work)
        else:
            metrics, info = end_to_end(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
