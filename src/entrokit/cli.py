"""Command-line interface.

Computes entropies, divergences, and metric diagonals on user-supplied
JSON/CSV data and runs verification sweeps. Results go to stdout as JSON
(or CSV with --format csv); diagnostics go to stderr. Exit codes: 0 on
success, 1 on usage errors, 2 on validation/domain errors, 3 when a
verify sweep finds a violation. Nothing is printed to stdout on a
nonzero exit except the verify report, whose failure records are the
point of exit code 3.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import io as eio
from .deformed_log import DeformParams
from .divergence import divergence, kl_divergence, mutual_divergence, tsallis_divergence
from .entropy import (
    conditional_entropy,
    entropy,
    mutual_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from .errors import EntrokitError, ParamError, ValidationError
from .geometry import CONVENTIONS, fisher_metric

__all__ = ["cli", "main", "entry"]


def _read_source(source: str) -> tuple[str, str | None]:
    """Inline JSON (starts with '{') or a file path; returns (text, hint)."""
    stripped = source.strip()
    if stripped.startswith("{"):
        return stripped, "json"
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as e:
        raise ValidationError(f"cannot read input {source!r}: {e}") from None
    hint = {".json": "json", ".csv": "csv"}.get(path.suffix.lower())
    return text, hint


def _load(source: str, fields: tuple[str, ...], fmt: str | None, normalize: bool):
    text, hint = _read_source(source)
    # inline JSON and recognizable extensions win; --format settles the rest
    fmt = hint or fmt or ("json" if text.lstrip().startswith("{") else "csv")
    return eio.read(text, fields, fmt, normalize)


def _to_csv(payload: dict) -> str:
    lines = [f"# {k}={v}" for k, v in payload.items() if isinstance(v, str)]
    numeric = [k for k, v in payload.items() if isinstance(v, (int, float))]
    if numeric:
        lines.append(",".join(numeric))
        lines.append(eio._row(payload[k] for k in numeric))
    lines.extend(eio._row(v) for v in payload.values() if isinstance(v, list))
    return "\n".join(lines) + "\n"


def _write(text: str, output: str | None) -> None:
    """text to the file output, ending in one newline, else to stdout."""
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text.rstrip("\n"))


def _emit(payload: dict, fmt: str, output: str | None) -> None:
    _write(_to_csv(payload) if fmt == "csv" else json.dumps(payload), output)


_common = [
    click.option("--k", type=float, required=True, help="Deformation parameter k."),
    click.option("--r", type=float, required=True, help="Deformation parameter r."),
    click.option("--relaxed", is_flag=True, help="Allow parameters outside the standard domain."),
    click.option("--normalize", is_flag=True, help="Normalize input weights instead of rejecting."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
                 help="Input/output format (default: inferred, JSON out)."),
    click.option("--output", type=click.Path(), default=None, help="Write result to a file."),
]


@click.group()
def cli():
    """Deformed-logarithm entropy and divergence toolkit."""


def _command(name: str, *options):
    """Register body(params, load, **own options) as the command `name`, with
    the common options, then its own. The parameters are checked first;
    load(source, fields) reads an input under --format and --normalize, and
    the payload the body returns is emitted."""

    def register(body):
        @functools.wraps(body)
        def run(k, r, relaxed, normalize, fmt, output, **own):
            params = DeformParams(k, r, relaxed)
            load = functools.partial(_load, fmt=fmt, normalize=normalize)
            _emit(body(params, load, **own), fmt or "json", output)

        for opt in reversed([*_common, *options]):
            run = opt(run)
        return cli.command(name)(run)

    return register


def _input(text: str):
    return click.option("--input", "source", required=True, help=text)


@_command("entropy", _input("Distribution (inline JSON or path)."))
def entropy_cmd(params, load, source):
    """Entropy of a distribution."""
    return {"value": entropy(load(source, ("p",)), params).value}


@_command("joint", _input("Joint matrix or tensor."))
def joint_cmd(params, load, source):
    """Entropy of a joint distribution (2 or 3 variables)."""
    return {"value": entropy(load(source, ("m", "t")), params).value}


@_command(
    "conditional",
    _input("Joint matrix or tensor."),
    click.option("--direction", type=click.Choice(["Y_given_X", "X_given_Y"]),
                 default="Y_given_X", show_default=True, help="For 2-variable joints."),
    click.option("--mode", type=click.Choice(["XY_given_Z", "Y_given_XZ", "X_given_Z", "Y_given_Z"]),
                 default=None, help="Required for 3-variable joints."),
)
def conditional_cmd(params, load, source, direction, mode):
    """Conditional entropy of a joint distribution."""
    j = load(source, ("m", "t"))
    if j.ndim == 3 and mode is None:
        raise click.UsageError("--mode is required for a 3-variable joint")
    if j.ndim == 2 and mode is not None:
        raise click.UsageError("--mode is not accepted for a 2-variable joint; use --direction")
    given = click.get_current_context().get_parameter_source("direction")
    if j.ndim == 3 and given is not ParameterSource.DEFAULT:
        raise click.UsageError("--direction is not accepted for a 3-variable joint; use --mode")
    return {"value": conditional_entropy(j, params, mode or direction).value}


@_command(
    "mutual",
    _input("Joint matrix."),
    click.option("--via", type=click.Choice(["entropy", "divergence"]), default="entropy",
                 show_default=True,
                 help="Entropy combination or divergence from the marginal product."),
)
def mutual_cmd(params, load, source, via):
    """Mutual entropy S(X) + S(Y) - S(X,Y), or the divergence form."""
    j = load(source, ("m", "t"))
    if via == "divergence":
        return {"value": mutual_divergence(j, params).value}
    return {"value": mutual_entropy(j, params)}


@_command(
    "divergence",
    click.option("--p", "p_source", required=True, help="First distribution P."),
    click.option("--q", "q_source", required=True, help="Second distribution Q."),
)
def divergence_cmd(params, load, p_source, q_source):
    """Relative entropy D(P || Q)."""
    result = divergence(load(p_source, ("p",)), load(q_source, ("p",)), params)
    if params.k == 0.5:
        click.echo(
            "warning: at k = 1/2 the divergence vanishes identically on common support",
            err=True,
        )
    return {"value": result.value}


@_command(
    "metric",
    _input("Full-support base distribution."),
    click.option("--convention", type=click.Choice(list(CONVENTIONS)), default="derived",
                 show_default=True, help="Metric coefficient convention."),
)
def metric_cmd(params, load, source, convention):
    """Diagonal of the divergence-induced metric at a base point."""
    m = fisher_metric(load(source, ("p",)), params, convention)
    return {"g": m.g.tolist(), "convention": convention}


# (target, whether --q is given) -> the reference value (p, q, k) -> float,
# or the usage error that pair is
_REFERENCES = {
    ("tsallis", False): lambda p, q, k: tsallis_entropy(p, 1.0 + 2.0 * k),
    ("tsallis", True): lambda p, q, k: tsallis_divergence(p, q, 1.0 - 2.0 * k),
    ("shannon", False): lambda p, q, k: shannon_entropy(p),
    ("shannon", True): "--q is not accepted with --target shannon",
    ("kl", False): "--q is required with --target kl",
    ("kl", True): lambda p, q, k: kl_divergence(p, q),
}


@_command(
    "reduce",
    _input("Distribution P."),
    click.option("--q", "q_source", default=None, help="Distribution Q (divergence reductions)."),
    click.option("--target", type=click.Choice(["tsallis", "shannon", "kl"]), required=True),
)
def reduce_cmd(params, load, source, q_source, target):
    """Compare against a reference entropy or divergence.

    tsallis maps q = 1 + 2k for entropies and q = 1 - 2k for divergences
    and requires k = r; shannon/kl compare the small-deformation limit.
    """
    p = load(source, ("p",))
    q = load(q_source, ("p",)) if q_source else None
    if target == "tsallis" and params.k != params.r:
        raise ParamError("tsallis reduction requires k = r")
    reference = _REFERENCES[target, q is not None]
    if isinstance(reference, str):
        raise click.UsageError(reference)
    generalized = (entropy(p, params) if q is None else divergence(p, q, params)).value
    reference = reference(p, q, params.k)
    return {
        "generalized_value": generalized,
        "reference_value": reference,
        "abs_diff": abs(generalized - reference),
    }


@cli.command("verify")
@click.option("--seed", type=int, default=0, envvar="ENTROKIT_SEED", show_default=True,
              help="Master seed (env ENTROKIT_SEED).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=None,
              help="Override tolerance (default: 1e-12 identities, 1e-9 inequalities).")
@click.option("--properties", default=None,
              help="Comma-separated property names (default: all).")
@click.option("--output", type=click.Path(), default=None, help="Write the report to a file.")
@click.option("--list", "list_only", is_flag=True, help="List registered properties and exit.")
def verify_cmd(seed, trials, tol, properties, output, list_only):
    """Run the seeded property sweep and report pass/fail per property."""
    from .verify import SweepConfig, list_properties, run_suite  # only this command needs it

    if list_only:
        payload = [
            {"name": n, "anchor": a, "kind": kind} for n, a, kind in list_properties()
        ]
        _write(json.dumps(payload, indent=2), output)
        return 0
    names = None if properties is None else tuple(s.strip() for s in properties.split(","))
    report = run_suite(SweepConfig(seed=seed, trials=trials, tol=tol, properties=names))
    _write(report.to_json(), output)
    return 0 if report.all_passed else 3


def main(argv=None) -> int:
    """Parse and dispatch; returns the process exit code instead of raising."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as e:  # includes click.UsageError
        e.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (EntrokitError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        return 2
    return rv if isinstance(rv, int) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
