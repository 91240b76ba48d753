"""End-to-end tests of the command-line surface and its exit codes."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import entrokit
from entrokit import io as eio
from entrokit import sample_distribution
from entrokit.cli import main

UNIFORM4 = '{"p":[0.25,0.25,0.25,0.25]}'
HALF = '{"p":[0.5,0.5]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_uniform4(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", UNIFORM4
        )
        assert code == 0
        assert json.loads(out) == {"value": 1.0}

    def test_normalize_flag(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1",
            "--input", '{"p":[2,2,2,2]}', "--normalize",
        )
        assert code == 0
        assert json.loads(out) == {"value": 1.0}

    def test_unnormalized_rejected_without_flag(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", '{"p":[2,2]}'
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_relaxed_parameters(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "0.75", "--r", "1", "--input", HALF, "--relaxed"
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_strict_parameters_rejected(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--k", "0.75", "--r", "1", "--input", HALF
        )
        assert code == 2
        assert out == ""

    def test_csv_file_input(self, capsys, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("0.25,0.25,0.25,0.25\n")
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out) == {"value": 1.0}

    def test_csv_output_format(self, capsys):
        # inline JSON still parses as JSON; --format csv switches the output
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", UNIFORM4,
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["value", "1.0"]


class TestJointAndConditional:
    def test_joint_matrix(self, capsys):
        code, out, _ = run(
            capsys, "joint", "--k", "0.5", "--r", "1",
            "--input", '{"m":[[0.25,0.25],[0.25,0.25]]}',
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.75, rel=1e-13)

    def test_joint_tensor(self, capsys):
        t = np.full((2, 2, 2), 0.125).tolist()
        code, out, _ = run(
            capsys, "joint", "--k", "0.25", "--r", "1",
            "--input", json.dumps({"t": t}),
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_conditional_direction(self, capsys):
        code, out, _ = run(
            capsys, "conditional", "--k", "0.5", "--r", "1",
            "--input", '{"m":[[0.25,0.25],[0.25,0.25]]}', "--direction", "Y_given_X",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, rel=1e-13)

    def test_conditional_tensor_needs_mode(self, capsys):
        t = json.dumps({"t": np.full((2, 2, 2), 0.125).tolist()})
        code, out, err = run(
            capsys, "conditional", "--k", "0.25", "--r", "1", "--input", t
        )
        assert code == 1
        assert out == ""
        code, out, _ = run(
            capsys, "conditional", "--k", "0.25", "--r", "1", "--input", t,
            "--mode", "XY_given_Z",
        )
        assert code == 0

    def test_conditional_tensor_rejects_direction(self, capsys):
        t = json.dumps({"t": sample_distribution((2, 3, 2), seed=5).p.tolist()})
        base = ("conditional", "--k", "0.25", "--r", "1", "--input", t, "--mode", "XY_given_Z")
        for direction in ("Y_given_X", "X_given_Y"):  # the default too, when given
            code, out, err = run(capsys, *base, "--direction", direction)
            assert code == 1
            assert out == ""
            assert "--direction is not accepted for a 3-variable joint; use --mode" in err
        code, out, _ = run(capsys, *base)
        assert code == 0

    def test_conditional_matrix_rejects_mode(self, capsys):
        code, out, err = run(
            capsys, "conditional", "--k", "0.25", "--r", "1",
            "--input", '{"m":[[0.1,0.2],[0.3,0.4]]}', "--mode", "XY_given_Z",
        )
        assert code == 1
        assert out == ""
        assert "--mode is not accepted for a 2-variable joint" in err

    def test_conditional_csv_joint(self, capsys, tmp_path):
        j = sample_distribution((3, 4), seed=2)
        path = tmp_path / "joint.csv"
        path.write_text(eio.write(j, "csv"))
        code, out, _ = run(
            capsys, "conditional", "--k", "0.3", "--r", "0.7", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out)["value"] >= 0

    def test_mutual(self, capsys):
        code, out, _ = run(
            capsys, "mutual", "--k", "0.5", "--r", "1",
            "--input", '{"m":[[0.5,0],[0,0.5]]}',
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5, rel=1e-13)

    def test_mutual_via_divergence(self, capsys):
        code, out, _ = run(
            capsys, "mutual", "--k", "0.25", "--r", "1",
            "--input", '{"m":[[0.5,0],[0,0.5]]}', "--via", "divergence",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5857864376269049, rel=1e-12)

    def test_mutual_via_divergence_of_a_joint_the_tolerance_accepts(self, capsys):
        # off by 0.9e-9, so its product of marginals by 1.8e-9: a value, not exit 2
        m = (np.array([[0.1, 0.2], [0.3, 0.4]]) * (1 + 0.9e-9)).tolist()
        code, out, _ = run(
            capsys, "mutual", "--k", "0.3", "--r", "1",
            "--input", json.dumps({"m": m}), "--via", "divergence",
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0016238770697772943


class TestDivergenceCommand:
    def test_identical_inputs(self, capsys):
        code, out, _ = run(
            capsys, "divergence", "--k", "0.25", "--r", "1", "--p", HALF, "--q", HALF
        )
        assert code == 0
        assert json.loads(out) == {"value": 0.0}

    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "divergence", "--k", "0.25", "--r", "1",
            "--p", HALF, "--q", '{"p":[0.25,0.75]}',
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.06814834742186343, 1e-12)

    def test_absolute_continuity_exit_code(self, capsys):
        code, out, err = run(
            capsys, "divergence", "--k", "0.25", "--r", "1",
            "--p", HALF, "--q", '{"p":[1.0,0.0]}',
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_boundary_warning_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "divergence", "--k", "0.5", "--r", "1", "--p", HALF, "--q", HALF
        )
        assert code == 0
        assert "warning" in err
        assert json.loads(out) == {"value": 0.0}


class TestMetricCommand:
    def test_derived(self, capsys):
        code, out, _ = run(
            capsys, "metric", "--k", "0.25", "--r", "0.5", "--input", HALF
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["convention"] == "derived"
        assert payload["g"] == [1.0, 1.0]

    def test_paper_convention(self, capsys):
        code, out, _ = run(
            capsys, "metric", "--k", "0.25", "--r", "0.5", "--input", HALF,
            "--convention", "paper",
        )
        assert code == 0
        assert json.loads(out)["g"] == [5.0, 5.0]

    def test_zero_entry_rejected(self, capsys):
        code, out, _ = run(
            capsys, "metric", "--k", "0.25", "--r", "0.5",
            "--input", '{"p":[1.0,0.0]}',
        )
        assert code == 2
        assert out == ""


class TestReduceCommand:
    def test_tsallis_entropy(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "0.5", "--r", "0.5", "--input", HALF,
            "--target", "tsallis",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generalized_value"] == pytest.approx(0.5, rel=1e-13)
        assert payload["reference_value"] == pytest.approx(0.5, rel=1e-13)
        assert payload["abs_diff"] <= 1e-15

    def test_tsallis_divergence(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "0.25", "--r", "0.25", "--input", HALF,
            "--q", '{"p":[0.25,0.75]}', "--target", "tsallis",
        )
        assert code == 0
        assert json.loads(out)["abs_diff"] <= 1e-12

    def test_tsallis_divergence_over_a_zero_p_cell(self, capsys):
        # p = 0 < q adds -q to both sides at k = 1/2
        code, out, _ = run(
            capsys, "reduce", "--k", "0.5", "--r", "0.5", "--input", '{"p":[0.5,0.5,0.0]}',
            "--q", '{"p":[0.25,0.25,0.5]}', "--target", "tsallis",
        )
        assert code == 0
        assert json.loads(out)["abs_diff"] <= 1e-15

    def test_tsallis_requires_equal_parameters(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--k", "0.25", "--r", "0.5", "--input", HALF,
            "--target", "tsallis",
        )
        assert code == 2
        assert out == ""

    def test_shannon(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "1e-4", "--r", "1e-4", "--input", HALF,
            "--target", "shannon",
        )
        assert code == 0
        assert json.loads(out)["abs_diff"] <= 1e-3

    def test_kl_requires_q(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "1e-4", "--r", "1e-4", "--input", HALF,
            "--target", "kl",
        )
        assert code == 1
        assert out == ""

    def test_kl(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "1e-4", "--r", "1e-4", "--input", HALF,
            "--q", '{"p":[0.25,0.75]}', "--target", "kl",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference_value"] == pytest.approx(0.14384103622589046, 1e-12)
        assert payload["abs_diff"] <= 1e-3 * (1 + payload["reference_value"])


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "3", "--seed", "42",
            "--properties", "chain_rule,subadditivity",
        )
        assert code == 0
        payload = json.loads(out)
        assert [p["name"] for p in payload["properties"]] == [
            "chain_rule", "subadditivity",
        ]
        assert all(p["fail"] == 0 for p in payload["properties"])

    def test_violations_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "5", "--seed", "42",
            "--properties", "product_rule_1", "--tol", "1e-30",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["properties"][0]["fail"] > 0

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTROKIT_SEED", "777")
        code, out_env, _ = run(
            capsys, "verify", "--trials", "2", "--properties", "chain_rule"
        )
        assert code == 0
        monkeypatch.delenv("ENTROKIT_SEED")
        code, out_flag, _ = run(
            capsys, "verify", "--trials", "2", "--seed", "777",
            "--properties", "chain_rule",
        )
        assert out_env == out_flag

    def test_infinite_tolerance_exit_two(self, capsys):
        # an infinite tolerance would pass every check, whatever the sweep finds
        code, out, err = run(
            capsys, "verify", "--trials", "1", "--properties", "chain_rule", "--tol", "inf"
        )
        assert code == 2
        assert out == ""
        assert "tol must be" in err

    def test_unknown_property_exit_two(self, capsys):
        code, out, err = run(
            capsys, "verify", "--trials", "1", "--properties", "bogus"
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("names", ["", "chain_rule,"], ids=["empty", "trailing-comma"])
    def test_empty_property_name_exit_two(self, capsys, names):
        # an empty selection is an error, not the whole registry
        code, out, err = run(capsys, "verify", "--trials", "1", "--properties", names)
        assert code == 2
        assert out == ""
        assert "property names must be non-empty" in err

    def test_list_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) >= 25
        assert {"name", "anchor", "kind"} == set(payload[0])

    def test_list_to_output_file(self, capsys, tmp_path):
        # --output takes the list as it takes a report: the file gets the
        # JSON that bare --list prints, and stdout stays empty
        _, listed, _ = run(capsys, "verify", "--list")
        path = tmp_path / "list.json"
        code, out, _ = run(capsys, "verify", "--list", "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == listed

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--trials", "2", "--seed", "5",
            "--properties", "chain_rule", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["config"]["seed"] == 5

    def test_determinism_across_invocations(self, capsys):
        _, a, _ = run(capsys, "verify", "--trials", "4", "--seed", "31")
        _, b, _ = run(capsys, "verify", "--trials", "4", "--seed", "31")
        assert a == b


class TestUsageAndErrors:
    def test_unknown_command(self, capsys):
        code, out, _ = run(capsys, "frobnicate")
        assert code == 1
        assert out == ""

    def test_missing_required_option(self, capsys):
        code, out, _ = run(capsys, "entropy", "--input", HALF)
        assert code == 1
        assert out == ""

    def test_malformed_json_input(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", '{"p": oops}'
        )
        assert code == 2
        assert out == ""

    def test_non_numeric_entries(self, capsys):
        for p in ('["a", "b"]', '["0.5", "0.5"]'):
            code, out, _ = run(
                capsys, "entropy", "--k", "0.25", "--r", "1",
                "--input", f'{{"p": {p}}}',
            )
            assert code == 2
            assert out == ""

    def test_boolean_entries(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1",
            "--input", '{"p": [true, false]}',
        )
        assert code == 2
        assert out == ""

    def test_subnormal_k(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "5e-324", "--r", "1", "--input", HALF
        )
        assert code == 2
        assert out == ""

    def test_jagged_matrix(self, capsys):
        code, out, _ = run(
            capsys, "joint", "--k", "0.25", "--r", "1",
            "--input", '{"m": [[0.5, 0.5], [0.0]]}',
        )
        assert code == 2
        assert out == ""

    def test_missing_file(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", "no/such/file.json"
        )
        assert code == 2
        assert out == ""

    def test_output_file_writing(self, capsys, tmp_path):
        path = tmp_path / "value.json"
        code, out, _ = run(
            capsys, "entropy", "--k", "0.25", "--r", "1", "--input", UNIFORM4,
            "--output", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text()) == {"value": 1.0}


# (command, inline input or file contents, file suffix or None, exact stderr);
# "{path}" in the stderr stands for the input file's path
INPUT_ERRORS = [
    ("entropy", '{"p": oops}', None,
     "error: malformed JSON input: Expecting value: line 1 column 7 (char 6)\n"),
    ("entropy", '{"q": [1]}', None, 'error: expected a JSON object with a "p" field\n'),
    ("entropy", '{"m": [[1]]}', None, 'error: expected a JSON object with a "p" field\n'),
    ("joint", '{"p": [1]}', None,
     'error: joint input needs an "m" (matrix) or "t" (tensor) field\n'),
    ("joint", "[1]\n", ".json", "error: expected a JSON object\n"),
    ("entropy", "0.5,abc\n", ".csv", "error: malformed CSV row: '0.5,abc'\n"),
    ("joint", "# rows=3 cols=3\n0.5,0.5\n0.0,0.0\n", ".csv",
     "error: CSV header declares (3, 3), data has (2, 2)\n"),
    ("entropy", "0.5,0.5\n0.25,0.75\n", ".csv", "error: expected a single CSV row, found 2\n"),
    ("joint", "0.5,0.5\n0.0\n", ".csv", "error: CSV rows have inconsistent lengths\n"),
    ("entropy", None, ".json",
     "error: cannot read input '{path}': [Errno 2] No such file or directory: '{path}'\n"),
]


@pytest.mark.parametrize("command, text, suffix, stderr", INPUT_ERRORS)
def test_input_error_messages(capsys, tmp_path, command, text, suffix, stderr):
    source = text
    if suffix is not None:
        path = tmp_path / f"input{suffix}"
        if text is not None:
            path.write_text(text)
        source = str(path)
    code, out, err = run(capsys, command, "--k", "0.25", "--r", "1", "--input", source)
    assert (code, out, err) == (2, "", stderr.replace("{path}", source))


class TestRoundTrip:
    def test_emitted_csv_is_re_readable(self, capsys, tmp_path):
        # values emitted by the io writers re-read to identical objects
        j = sample_distribution((4, 3), seed=77)
        path = tmp_path / "j.csv"
        path.write_text(eio.write(j, "csv"))
        again = eio.read(path.read_text(), ("m",), "csv", False)
        np.testing.assert_array_equal(j.p, again.p)
        code, out1, _ = run(
            capsys, "joint", "--k", "0.3", "--r", "1", "--input", str(path)
        )
        jso = tmp_path / "j.json"
        jso.write_text(eio.write(j, "json"))
        code, out2, _ = run(
            capsys, "joint", "--k", "0.3", "--r", "1", "--input", str(jso)
        )
        assert out1 == out2


LAYER_MODULES = ("deformed_log", "distributions", "entropy", "divergence", "geometry", "errors",
                 "verify")
ALIASES = ("joint_entropy", "conditional_entropy3")  # left out of entropy.__all__


class TestImports:
    @pytest.mark.parametrize("name", [*LAYER_MODULES, "io", "cli"])
    def test_every_name_of_a_submodules_all_resolves(self, name):
        # perfbench's tracer wraps each layer's functions by these names and
        # skips a missing one without a word
        module = importlib.import_module(f"entrokit.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    def test_the_package_exports_what_its_layer_modules_declare(self):
        # entrokit.__all__ is read from the modules' own lists, so no public
        # name drifts out of the package, and each is the module's object
        modules = [importlib.import_module(f"entrokit.{name}") for name in LAYER_MODULES]
        declared = [n for m in modules for n in m.__all__] + list(ALIASES)
        assert len(entrokit.__all__) == len(set(entrokit.__all__))
        assert sorted(entrokit.__all__) == sorted(declared)
        for m in modules:
            assert [n for n in m.__all__ if getattr(entrokit, n) is not getattr(m, n)] == []
        entropy_module = sys.modules["entrokit.entropy"]  # entrokit.entropy is the function
        assert all(getattr(entrokit, n) is getattr(entropy_module, n) for n in ALIASES)

    def test_sweep_engine_loads_only_when_used(self):
        # the library and the CLI's other commands do not import the sweep
        # engine; the names they leave unbound are verify's, and each name of
        # entrokit.__all__ still resolves, and loads it
        code = (
            "import sys, entrokit, entrokit.cli\n"
            "print(sorted({'entrokit.verify', 'entrokit.properties'} & set(sys.modules)))\n"
            "print([n for n in entrokit.__all__ if n not in vars(entrokit)])\n"
            "missing = [n for n in entrokit.__all__ if not hasattr(entrokit, n)]\n"
            "print(missing, 'entrokit.verify' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(entrokit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        from entrokit import verify

        assert out.splitlines() == ["[]", str(verify.__all__), "[] True"]


# Each command's parameters in order: name, flags, type, required, default
# (None where required), choices and whether it is a flag.
_COMMON = [
    ("k", ("--k",), "float", True, None, None, False),
    ("r", ("--r",), "float", True, None, None, False),
    ("relaxed", ("--relaxed",), "boolean", False, False, None, True),
    ("normalize", ("--normalize",), "boolean", False, False, None, True),
    ("fmt", ("--format",), "choice", False, None, ("json", "csv"), False),
    ("output", ("--output",), "path", False, None, None, False),
]
_INPUT = ("source", ("--input",), "text", True, None, None, False)
COMMAND_PARAMETERS = {
    "entropy": [*_COMMON, _INPUT],
    "joint": [*_COMMON, _INPUT],
    "conditional": [
        *_COMMON, _INPUT,
        ("direction", ("--direction",), "choice", False, "Y_given_X", ("Y_given_X", "X_given_Y"),
         False),
        ("mode", ("--mode",), "choice", False, None,
         ("XY_given_Z", "Y_given_XZ", "X_given_Z", "Y_given_Z"), False),
    ],
    "mutual": [
        *_COMMON, _INPUT,
        ("via", ("--via",), "choice", False, "entropy", ("entropy", "divergence"), False),
    ],
    "divergence": [
        *_COMMON,
        ("p_source", ("--p",), "text", True, None, None, False),
        ("q_source", ("--q",), "text", True, None, None, False),
    ],
    "metric": [
        *_COMMON, _INPUT,
        ("convention", ("--convention",), "choice", False, "derived", ("derived", "paper"), False),
    ],
    "reduce": [
        *_COMMON, _INPUT,
        ("q_source", ("--q",), "text", False, None, None, False),
        ("target", ("--target",), "choice", True, None, ("tsallis", "shannon", "kl"), False),
    ],
    "verify": [
        ("seed", ("--seed",), "integer", False, 0, None, False),
        ("trials", ("--trials",), "integer", False, 100, None, False),
        ("tol", ("--tol",), "float", False, None, None, False),
        ("properties", ("--properties",), "text", False, None, None, False),
        ("output", ("--output",), "path", False, None, None, False),
        ("list_only", ("--list",), "boolean", False, False, None, True),
    ],
}


def test_each_command_keeps_its_parameters():
    from entrokit.cli import cli

    def pinned(p):
        choices = getattr(p.type, "choices", None)
        return (p.name, tuple(p.opts), p.type.name, p.required, None if p.required else p.default,
                None if choices is None else tuple(choices), p.is_flag)

    assert list(cli.commands) == list(COMMAND_PARAMETERS)
    for name, expected in COMMAND_PARAMETERS.items():
        assert [pinned(p) for p in cli.commands[name].params] == expected, name
    assert cli.commands["verify"].params[0].envvar == "ENTROKIT_SEED"
