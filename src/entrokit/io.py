"""JSON and CSV reader and writer for probability data: `read` and `write`.

Each object lives under one JSON field, listed in `FIELDS`: {"p": [...]}
for a distribution, {"m": [[...], ...]} for a joint of two variables,
{"t": [[[...], ...], ...]} for a joint of three, {"w": [[...], ...]} for a
channel (rows = outputs). CSV holds a distribution as one row, and a joint
of two variables or a channel as a row-major matrix under an optional
"# rows=<n_x> cols=<n_y>" header; a joint of three has no CSV layout.
Numbers are written with shortest round-trip precision so emitted files
re-read to identical values.
"""

from __future__ import annotations

import json

from .distributions import (
    Channel,
    Distribution,
    _flag,
    make_channel,
    make_distribution,
    make_joint2,
    make_joint3,
)
from .errors import ValidationError

__all__ = ["FIELDS", "read", "write"]

# field -> (what it holds, the shape of its data, constructor)
FIELDS = {
    "p": ("distribution", "vector", make_distribution),
    "m": ("joint", "matrix", make_joint2),
    "t": ("joint", "tensor", make_joint3),
    "w": ("channel", "matrix", make_channel),
}


def read(text: str, fields: tuple[str, ...], fmt: str, normalize: bool) -> Distribution | Channel:
    """The object under the first of `fields` in JSON `text`, or in CSV
    `fields[0]`'s layout; fmt is "json" or "csv"."""
    normalize = _flag("normalize", normalize, ValidationError)
    if not fields:
        raise ValidationError(f"no field to read; fields come from {', '.join(FIELDS)}")
    for f in fields:
        if f not in FIELDS:
            raise ValidationError(f"unknown field {f!r}; fields come from {', '.join(FIELDS)}")
    parse = _json_field if _format(fmt) == "json" else _csv_field
    field, data = parse(text, fields)
    return FIELDS[field][2](data, normalize=normalize)


def write(obj: Distribution | Channel, fmt: str) -> str:
    """`obj` as JSON or CSV text (fmt "json" or "csv"), under the field of
    its type and rank."""
    if isinstance(obj, Channel):
        field, a = "w", obj.w
    elif obj.ndim <= 3:
        field, a = "pmt"[obj.ndim - 1], obj.p
    else:
        raise ValidationError(f"no field holds a distribution of rank {obj.ndim}")
    if _format(fmt) == "json":
        return json.dumps({field: a.tolist()})
    if a.ndim == 1:
        return _row(a) + "\n"
    if a.ndim == 3:
        raise ValidationError("a joint of three variables has no CSV layout")
    lines = [f"# rows={a.shape[0]} cols={a.shape[1]}"]
    lines.extend(_row(r) for r in a)
    return "\n".join(lines) + "\n"


def _format(fmt) -> str:
    """fmt, if it is "json" or "csv"; else a ValidationError."""
    if not (isinstance(fmt, str) and fmt in ("json", "csv")):
        raise ValidationError(f"format must be 'json' or 'csv', got {fmt!r}")
    return fmt


def _row(values) -> str:
    """One CSV row, each number at shortest round-trip precision."""
    return ",".join(repr(float(v)) for v in values)


def _json_field(text: str, fields: tuple[str, ...]):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON input: {e}") from None
    present = [f for f in fields if isinstance(obj, dict) and f in obj]
    if present:
        return present[0], obj[present[0]]
    if len(fields) == 1:
        raise ValidationError(f'expected a JSON object with a "{fields[0]}" field')
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object")
    choices = " or ".join(f'"{f}" ({FIELDS[f][1]})' for f in fields)
    raise ValidationError(f"{FIELDS[fields[0]][0]} input needs an {choices} field")


def _csv_field(text: str, fields: tuple[str, ...]):
    """The rows of CSV `text`: exactly one for a vector field, a full matrix otherwise."""
    header = None
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            pairs = dict(part.split("=", 1) for part in line.lstrip("#").split() if "=" in part)
            if "rows" in pairs and "cols" in pairs:
                try:
                    header = (int(pairs["rows"]), int(pairs["cols"]))
                except ValueError:
                    raise ValidationError(f"malformed CSV header: {line!r}") from None
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise ValidationError(f"malformed CSV row: {line!r}") from None
    if FIELDS[fields[0]][1] == "vector":
        if len(rows) != 1:
            raise ValidationError(f"expected a single CSV row, found {len(rows)}")
        return fields[0], rows[0]
    if not rows:
        raise ValidationError("no data rows in CSV input")
    if len({len(r) for r in rows}) != 1:
        raise ValidationError("CSV rows have inconsistent lengths")
    found = (len(rows), len(rows[0]))
    if header is not None and header != found:
        raise ValidationError(f"CSV header declares {header}, data has {found}")
    return fields[0], rows


# Kept only because the frozen benchmark (perfbench/climix.py) calls them;
# ROADMAP item 4's benchmark change deletes them.
def distribution_from_json(text: str) -> Distribution:
    return read(text, ("p",), "json", False)


def joint2_from_csv(text: str) -> Distribution:
    return read(text, ("m",), "csv", False)
