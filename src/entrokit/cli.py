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

import json
import sys
from pathlib import Path

import click

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
from .verify import SweepConfig, list_properties, run_suite

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


def _emit(payload: dict, fmt: str, output: str | None) -> None:
    text = _to_csv(payload) if fmt == "csv" else json.dumps(payload)
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text.rstrip("\n"))


_common = [
    click.option("--k", type=float, required=True, help="Deformation parameter k."),
    click.option("--r", type=float, required=True, help="Deformation parameter r."),
    click.option("--relaxed", is_flag=True, help="Allow parameters outside the standard domain."),
    click.option("--normalize", is_flag=True, help="Normalize input weights instead of rejecting."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
                 help="Input/output format (default: inferred, JSON out)."),
    click.option("--output", type=click.Path(), default=None, help="Write result to a file."),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@click.group()
def cli():
    """Deformed-logarithm entropy and divergence toolkit."""


@cli.command("entropy")
@_with_common
@click.option("--input", "source", required=True, help="Distribution (inline JSON or path).")
def entropy_cmd(k, r, relaxed, normalize, fmt, output, source):
    """Entropy of a distribution."""
    params = DeformParams(k, r, relaxed)
    p = _load(source, ("p",), fmt, normalize)
    _emit({"value": entropy(p, params).value}, fmt or "json", output)


@cli.command("joint")
@_with_common
@click.option("--input", "source", required=True, help="Joint matrix or tensor.")
def joint_cmd(k, r, relaxed, normalize, fmt, output, source):
    """Entropy of a joint distribution (2 or 3 variables)."""
    params = DeformParams(k, r, relaxed)
    j = _load(source, ("m", "t"), fmt, normalize)
    _emit({"value": entropy(j, params).value}, fmt or "json", output)


@cli.command("conditional")
@_with_common
@click.option("--input", "source", required=True, help="Joint matrix or tensor.")
@click.option("--direction", type=click.Choice(["Y_given_X", "X_given_Y"]),
              default="Y_given_X", show_default=True, help="For 2-variable joints.")
@click.option("--mode", type=click.Choice(["XY_given_Z", "Y_given_XZ", "X_given_Z", "Y_given_Z"]),
              default=None, help="Required for 3-variable joints.")
def conditional_cmd(k, r, relaxed, normalize, fmt, output, source, direction, mode):
    """Conditional entropy of a joint distribution."""
    params = DeformParams(k, r, relaxed)
    j = _load(source, ("m", "t"), fmt, normalize)
    if j.ndim == 3 and mode is None:
        raise click.UsageError("--mode is required for a 3-variable joint")
    if j.ndim == 2 and mode is not None:
        raise click.UsageError("--mode is not accepted for a 2-variable joint; use --direction")
    value = conditional_entropy(j, params, mode or direction).value
    _emit({"value": value}, fmt or "json", output)


@cli.command("mutual")
@_with_common
@click.option("--input", "source", required=True, help="Joint matrix.")
@click.option("--via", type=click.Choice(["entropy", "divergence"]), default="entropy",
              show_default=True, help="Entropy combination or divergence from the marginal product.")
def mutual_cmd(k, r, relaxed, normalize, fmt, output, source, via):
    """Mutual entropy S(X) + S(Y) - S(X,Y), or the divergence form."""
    params = DeformParams(k, r, relaxed)
    j = _load(source, ("m", "t"), fmt, normalize)
    if via == "divergence":
        value = mutual_divergence(j, params).value
    else:
        value = mutual_entropy(j, params)
    _emit({"value": value}, fmt or "json", output)


@cli.command("divergence")
@_with_common
@click.option("--p", "p_source", required=True, help="First distribution P.")
@click.option("--q", "q_source", required=True, help="Second distribution Q.")
def divergence_cmd(k, r, relaxed, normalize, fmt, output, p_source, q_source):
    """Relative entropy D(P || Q)."""
    params = DeformParams(k, r, relaxed)
    p = _load(p_source, ("p",), fmt, normalize)
    q = _load(q_source, ("p",), fmt, normalize)
    result = divergence(p, q, params)
    if params.k == 0.5:
        click.echo(
            "warning: at k = 1/2 the divergence vanishes identically on common support",
            err=True,
        )
    _emit({"value": result.value}, fmt or "json", output)


@cli.command("metric")
@_with_common
@click.option("--input", "source", required=True, help="Full-support base distribution.")
@click.option("--convention", type=click.Choice(list(CONVENTIONS)), default="derived",
              show_default=True, help="Metric coefficient convention.")
def metric_cmd(k, r, relaxed, normalize, fmt, output, source, convention):
    """Diagonal of the divergence-induced metric at a base point."""
    params = DeformParams(k, r, relaxed)
    p = _load(source, ("p",), fmt, normalize)
    m = fisher_metric(p, params, convention)
    _emit({"g": m.g.tolist(), "convention": convention}, fmt or "json", output)


@cli.command("reduce")
@_with_common
@click.option("--input", "source", required=True, help="Distribution P.")
@click.option("--q", "q_source", default=None, help="Distribution Q (divergence reductions).")
@click.option("--target", type=click.Choice(["tsallis", "shannon", "kl"]), required=True)
def reduce_cmd(k, r, relaxed, normalize, fmt, output, source, q_source, target):
    """Compare against a reference entropy or divergence.

    tsallis maps q = 1 + 2k for entropies and q = 1 - 2k for divergences
    and requires k = r; shannon/kl compare the small-deformation limit.
    """
    params = DeformParams(k, r, relaxed)
    p = _load(source, ("p",), fmt, normalize)
    q = _load(q_source, ("p",), fmt, normalize) if q_source else None

    if target == "tsallis":
        if k != r:
            raise ParamError("tsallis reduction requires k = r")
        if q is None:
            generalized = entropy(p, params).value
            reference = tsallis_entropy(p, 1.0 + 2.0 * k)
        else:
            generalized = divergence(p, q, params).value
            reference = tsallis_divergence(p, q, 1.0 - 2.0 * k)
    elif target == "shannon":
        if q is not None:
            raise click.UsageError("--q is not accepted with --target shannon")
        generalized = entropy(p, params).value
        reference = shannon_entropy(p)
    else:  # kl
        if q is None:
            raise click.UsageError("--q is required with --target kl")
        generalized = divergence(p, q, params).value
        reference = kl_divergence(p, q)

    _emit(
        {
            "generalized_value": generalized,
            "reference_value": reference,
            "abs_diff": abs(generalized - reference),
        },
        fmt or "json",
        output,
    )


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
    if list_only:
        payload = [
            {"name": n, "anchor": a, "kind": kind} for n, a, kind in list_properties()
        ]
        click.echo(json.dumps(payload, indent=2))
        return 0
    names = tuple(s.strip() for s in properties.split(",")) if properties else None
    config = SweepConfig(seed=seed, trials=trials, tol=tol, properties=names)
    report = run_suite(config)
    text = report.to_json()
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)
    if not report.all_passed:
        return 3
    return 0


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
