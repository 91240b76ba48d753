"""Alternating benchmark pairs of two commits, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<pr>.json [--seed N] \
        WORKLOAD:PAIRS:SECONDS ...

for example `tools/bench_pairs.py --parent HEAD~1 --out BENCH_20.json
sweep:10:30 bulk:5:20`. The change side is HEAD. Each side is the committed
tree of its revision, unpacked with `git archive` into a temporary directory: both sides run
exactly what their commit holds, as fresh checkouts, and nothing is left
in the repository. For each WORKLOAD:PAIRS:SECONDS, pair i runs
`perfbench/run.py --workload WORKLOAD --seed N+i --seconds SECONDS` once
on each side, the parent first in even pairs and the change first in odd
ones, so a drift in the host's load favours neither side. Then each side
runs `--trace 1` once per workload (seed TRACE_SEED, TRACE_SECONDS long),
for the per-layer view.

The file holds, per workload, every run of each side; per end-to-end
metric of BENCHMARK.json, each side's median and quartiles over its runs,
the pairs the change won by that metric's `better` (a tie counts for
neither side) and the verdict (see `verdict`); and each side's attempted
and failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TRACE_SEED = 7
TRACE_SECONDS = 10.0


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def change_wins(parent: float, change: float, better: str) -> bool:
    """Whether the change's value beats the parent's; a tie beats neither."""
    return change > parent if better == "higher" else change < parent


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from its runs in pair order:
    - "gain": the change wins at least 9 in 10 pairs, and its median beats
      the parent's by more than the parent's quartile spread (q3 - q1);
    - "worse": the change's median is worse than the parent's by more than
      `bound` times the parent's median;
    - "unresolved": either side's quartile spread is wider than `bound`
      times its median, unless every change run beats every parent run;
    - "within bound": otherwise.
    """
    p, c = quartiles(parent), quartiles(change)
    wins = sum(change_wins(a, b, better) for a, b in zip(parent, change))
    ahead = (c["median"] - p["median"]) * (1 if better == "higher" else -1)
    if 10 * wins >= 9 * len(parent) and ahead > p["q3"] - p["q1"]:
        return "gain"
    if -ahead > bound * abs(p["median"]):
        return "worse"
    if any(q["q3"] - q["q1"] > bound * abs(q["median"]) for q in (p, c)) and not all(
            change_wins(a, b, better) for a in parent for b in change):
        return "unresolved"
    return "within bound"


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, each side's quartiles, the pairs the change
    won and the verdict; runs holds each side's runs in pair order."""
    summary = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        parent, change = ([r["metrics"][name] for r in runs[side]] for side in SIDES)
        wins = sum(change_wins(p, c, better) for p, c in zip(parent, change))
        summary[name] = {"parent": quartiles(parent), "change": quartiles(change),
                         "change_better_pairs": f"{wins}/{len(parent)}",
                         "verdict": verdict(parent, change, better, spec["bound"])}
    return summary


def operations(runs: dict) -> dict:
    """Each side's attempted and failed operations over all its runs."""
    return {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                   "failed": sum(r["failed"] for r in runs[side])} for side in SIDES}


def unpack(rev: str, dest: Path) -> str:
    """The committed tree of rev in dest; returns the commit's hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run in a checkout: its record and the machine it reports."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {side} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next((json.loads(line.split(": ", 1)[1]) for line in lines
                    if line.startswith("machine: ")), {})
    record = {k: result[k] for k in ("correct", "attempted", "failed")}
    record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    record["seed"] = seed
    return record, machine


def parse_plan(text: str) -> tuple[str, int, float]:
    workload, pairs, seconds = text.split(":")
    return workload, int(pairs), float(seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to write")
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    ap.add_argument("plan", nargs="+", type=parse_plan, metavar="WORKLOAD:PAIRS:SECONDS")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        revs = {side: unpack(rev, dirs[side])
                for side, rev in zip(SIDES, (args.parent, "HEAD"))}
        spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        out = {
            # perfbench's digest of each side's src/, as its runs report it
            "change_src_sha256": None,
            "parent_src_sha256": None,
            "revisions": revs,
            "commands": {
                "end_to_end": "python3 perfbench/run.py --workload W --seed S --seconds T "
                              "--trace 0, parent and change alternating which runs first",
                "per_layer": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                             f"--seconds {TRACE_SECONDS:g} --trace 1",
                "plan": [f"{w}:{n}:{s:g}" for w, n, s in args.plan],
            },
            "end_to_end": {},
            "machine": {},
            "per_layer": {},
        }
        seed = args.seed
        for workload, pairs, seconds in args.plan:
            runs = {side: [] for side in SIDES}
            for i in range(pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    record, machine = bench(dirs[side], workload, seed, seconds, 0)
                    out[f"{side}_src_sha256"] = machine.pop("src_sha256", None)
                    machine.pop("git_commit", None)  # an archive has none; see revisions
                    out["machine"] = machine
                    runs[side].append(record)
                    print(f"{workload} pair {i + 1}/{pairs} {side}: "
                          f"{json.dumps(record['metrics'])}", file=sys.stderr)
                seed += 1
            out["end_to_end"][workload] = {"runs": runs,
                                           "summary": summarize(runs, spec["end_to_end"]),
                                           "operations": operations(runs)}
        for workload, _, _ in args.plan:
            traced = {side: bench(dirs[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
                      for side in SIDES}
            out["per_layer"][workload] = {side: traced[side][0]["metrics"] for side in SIDES}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
