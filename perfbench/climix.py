"""`cli` workload: one-shot `entrokit` invocations, one child process at a time.

A closed loop spawns the console-script entry point over a fixed mix:
entropy on inline JSON, divergence reading two n = 10^4 JSON files,
conditional reading a CSV joint, metric writing CSV to a file,
`verify --list`, a small `verify --properties` sweep, and one invalid
input that must exit 2. Process start, imports, click dispatch and the
read/write paths dominate; the numeric layers do little.

Every invocation is checked outside its timed region: the exit code must
be the expected one and each printed or written value must equal the
in-process library value bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import entrokit as ek
from entrokit import cli, verify
from entrokit import io as eio

from common import child_env, import_seconds, run_child
from tracer import Tracer

N_FILE = 10_000
JOINT_SIDE = 100
N_INLINE = 16
SWEEP_PROPERTIES = ("chain_rule", "divergence_nonnegativity", "zero_extension")
SWEEP_TRIALS = 20
IMPORT_REPEATS = 5
ENTRY = "from entrokit.cli import entry; entry()"
LABELS = (
    "entropy_inline",
    "divergence_files",
    "conditional_csv",
    "metric_csv_out",
    "verify_list",
    "verify_sweep",
    "invalid_input",
)


def _values_equal(got, want) -> bool:
    a = np.asarray(got, dtype=float)
    b = np.asarray(want, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _is_read(key: str) -> bool:
    return key.startswith("io.") and (key == "io.read_source" or "_from_" in key)


def _is_write(key: str) -> bool:
    return key.startswith("io.") and (key == "io.emit" or "_to_" in key)


def _csv_floats(text: str) -> list[float]:
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [float(v) for row in rows for v in row.split(",")]


class CliMix:
    name = "cli"
    kinds = LABELS  # the calls of one rotation of the mix, in order
    segments = 1  # every invocation is already a fresh interpreter

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir
        self.env = child_env(Path(ek.__file__).resolve().parents[1])
        self.mix: list[tuple[str, list[str]]] = []
        self.expect: dict[str, tuple[int, object]] = {}
        self.metric_out = workdir / "metric_out.csv"

    # -- inputs -----------------------------------------------------------

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        k, r = float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 2.0))
        common = ["--k", repr(k), "--r", repr(r)]

        def simplex(n):
            e = rng.exponential(size=n) + 1e-300
            return (e / e.sum()).tolist()

        self.work.mkdir(parents=True, exist_ok=True)
        files = {name: self.work / name for name in ("p.json", "q.json", "base.json", "joint.csv")}
        files["p.json"].write_text(json.dumps({"p": simplex(N_FILE)}))
        files["q.json"].write_text(json.dumps({"p": simplex(N_FILE)}))
        files["base.json"].write_text(json.dumps({"p": simplex(N_FILE)}))
        joint = np.asarray(simplex(JOINT_SIDE * JOINT_SIDE)).reshape(JOINT_SIDE, JOINT_SIDE)
        lines = [f"# rows={JOINT_SIDE} cols={JOINT_SIDE}"]
        lines += [",".join(repr(float(v)) for v in row) for row in joint]
        files["joint.csv"].write_text("\n".join(lines) + "\n")
        inline = json.dumps({"p": simplex(N_INLINE)})
        bad = json.dumps({"p": [0.5, 0.6]})

        argvs = (
            ["entropy", *common, "--input", inline],
            ["divergence", *common, "--p", str(files["p.json"]), "--q", str(files["q.json"])],
            ["conditional", *common, "--input", str(files["joint.csv"])],
            ["metric", *common, "--input", str(files["base.json"]),
             "--format", "csv", "--output", str(self.metric_out)],
            ["verify", "--list"],
            ["verify", "--seed", str(self.seed), "--trials", str(SWEEP_TRIALS),
             "--properties", ",".join(SWEEP_PROPERTIES)],
            ["entropy", *common, "--input", bad],
        )
        self.mix = list(zip(LABELS, argvs))
        self._params = ek.DeformParams(k, r)
        self._inline, self._files = inline, files
        self.call(0)  # warm-up: one invocation

    def expectations(self) -> None:
        """In-process library values each invocation must reproduce."""
        prm, files = self._params, self._files

        def read(name):
            return files[name].read_text()

        p = eio.distribution_from_json(read("p.json"))
        q = eio.distribution_from_json(read("q.json"))
        cfg = ek.SweepConfig(seed=self.seed, trials=SWEEP_TRIALS, properties=SWEEP_PROPERTIES)
        report = verify.run_suite(cfg)
        self.expect = {
            "entropy_inline": (0, ek.entropy(eio.distribution_from_json(self._inline), prm).value),
            "divergence_files": (0, ek.divergence(p, q, prm).value),
            "conditional_csv": (0, ek.conditional_entropy(
                eio.joint2_from_csv(read("joint.csv")), prm).value),
            "metric_csv_out": (0, ek.fisher_metric(
                eio.distribution_from_json(read("base.json")), prm).g),
            "verify_list": (0, [list(t) for t in verify.list_properties()]),
            "verify_sweep": (0 if report.all_passed else 3, report.to_json()),
            "invalid_input": (2, None),
        }

    # -- one invocation ---------------------------------------------------

    def call(self, i: int):
        label, argv = self.mix[i % len(self.mix)]
        if label == "metric_csv_out":
            self.metric_out.unlink(missing_ok=True)
        dt, done = run_child([sys.executable, "-c", ENTRY, *argv], self.env)
        return dt, 1, (label, done.returncode, done.stdout)

    def check_call(self, i: int, out) -> str | None:
        if not self.expect:
            self.expectations()
        label, code, stdout = out
        want_code, want = self.expect[label]
        if code != want_code:
            return f"{label}: exit {code}, expected {want_code}"
        try:
            if label == "invalid_input":
                ok = stdout == ""
            elif label == "metric_csv_out":
                ok = stdout == "" and _values_equal(
                    _csv_floats(self.metric_out.read_text()), want)
            elif label == "verify_list":
                ok = [[d["name"], d["anchor"], d["kind"]] for d in json.loads(stdout)] == want
            elif label == "verify_sweep":
                ok = stdout == want + "\n"
            else:
                ok = _values_equal(json.loads(stdout)["value"], want)
        except (ValueError, KeyError, TypeError, OSError) as e:
            return f"{label}: unreadable output ({e})"
        return None if ok else f"{label}: output differs from the library value"

    def final_checks(self) -> list[str]:
        return []

    def summary(self) -> dict:
        return {"mix": [label for label, _ in self.mix]}

    # -- traced run -------------------------------------------------------

    def replay(self, i: int):
        """The same invocation through cli.main in this process."""
        label, argv = self.mix[i % len(self.mix)]
        if label == "metric_csv_out":
            self.metric_out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return label, code, out.getvalue()

    def trace(self, seconds: float | None):
        """Per-layer metrics from an in-process replay of the mix."""
        if not self.mix:
            self.prepare()
        if not self.expect:
            self.expectations()
        problems = []
        tracer = Tracer().install()
        calls = reads = writes = 0
        with tracer:
            started = perf_counter()
            while calls < len(self.mix) or (
                seconds is not None and perf_counter() - started < seconds
            ):
                tracer.trial = calls
                before = (tracer.matching(_is_read)[0], tracer.matching(_is_write)[0])
                out = self.replay(calls)
                reads += tracer.matching(_is_read)[0] > before[0]
                writes += tracer.matching(_is_write)[0] > before[1]
                problem = self.check_call(calls, out)
                if problem:
                    problems.append(f"replay {problem}")
                calls += 1
        metrics = {
            "io.read_ms_per_call": 1e3 * tracer.matching(_is_read)[2] / max(reads, 1),
            "io.write_ms_per_call": 1e3 * tracer.matching(_is_write)[2] / max(writes, 1),
            "cli.dispatch_ms_per_call": 1e3 * tracer.layer("cli")[2] / calls,
        }
        metrics.update(self.import_costs())
        return metrics, problems, calls, {"cli": tracer.dump()}, self.summary()

    def import_costs(self) -> dict:
        """Fresh-interpreter import costs, interleaved so drift hits all three."""
        times = {"pass": [], "import numpy": [], "import entrokit.cli": []}
        for _ in range(IMPORT_REPEATS):
            for stmt, samples in times.items():
                samples.append(import_seconds(stmt, self.env))
        start, numpy_s, cli_s = (statistics.median(v) for v in times.values())
        return {
            "cli.python_start_ms": 1e3 * start,
            "cli.numpy_import_ms": 1e3 * (numpy_s - start),
            "cli.import_ms": 1e3 * (cli_s - start),
        }
