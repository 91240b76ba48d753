"""JSON and CSV readers/writers for probability data.

JSON object shapes: {"p": [...]} for a distribution, {"m": [[...], ...]}
for a joint of two variables, {"t": [[[...], ...], ...]} for a joint of
three, {"w": [[...], ...]} for a channel (rows = outputs). CSV holds one
row per vector; matrices are row-major with a leading
"# rows=<n_x> cols=<n_y>" header. Numbers are written with shortest
round-trip precision so emitted files re-read to identical values.
"""

from __future__ import annotations

import json

import numpy as np

from .distributions import (
    Channel,
    Distribution,
    make_channel,
    make_distribution,
    make_joint2,
    make_joint3,
)
from .errors import ValidationError

__all__ = [
    "distribution_to_json",
    "joint2_to_json",
    "joint3_to_json",
    "channel_to_json",
    "distribution_from_json",
    "joint2_from_json",
    "joint3_from_json",
    "channel_from_json",
    "distribution_to_csv",
    "joint2_to_csv",
    "channel_to_csv",
    "distribution_from_csv",
    "joint2_from_csv",
    "channel_from_csv",
]


def distribution_to_json(d: Distribution) -> str:
    return json.dumps({"p": d.p.tolist()})


def joint2_to_json(j: Distribution) -> str:
    return json.dumps({"m": j.p.tolist()})


def joint3_to_json(j: Distribution) -> str:
    return json.dumps({"t": j.p.tolist()})


def channel_to_json(c: Channel) -> str:
    return json.dumps({"w": c.w.tolist()})


def _json_field(text: str, key: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON input: {e}") from None
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f'expected a JSON object with a "{key}" field')
    return obj[key]


def distribution_from_json(text: str, normalize: bool = False) -> Distribution:
    return make_distribution(_json_field(text, "p"), normalize=normalize)


def joint2_from_json(text: str, normalize: bool = False) -> Distribution:
    return make_joint2(_json_field(text, "m"), normalize=normalize)


def joint3_from_json(text: str, normalize: bool = False) -> Distribution:
    return make_joint3(_json_field(text, "t"), normalize=normalize)


def channel_from_json(text: str, normalize: bool = False) -> Channel:
    return make_channel(_json_field(text, "w"), normalize=normalize)


def _row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def distribution_to_csv(d: Distribution) -> str:
    return _row(d.p) + "\n"


def _matrix_to_csv(a: np.ndarray) -> str:
    rows, cols = a.shape
    lines = [f"# rows={rows} cols={cols}"]
    lines.extend(_row(r) for r in a)
    return "\n".join(lines) + "\n"


def joint2_to_csv(j: Distribution) -> str:
    return _matrix_to_csv(j.p)


def channel_to_csv(c: Channel) -> str:
    return _matrix_to_csv(c.w)


def _parse_rows(text: str) -> tuple[list[list[float]], tuple[int, int] | None]:
    shape = None
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = dict(
                part.split("=", 1) for part in line.lstrip("#").split() if "=" in part
            )
            if "rows" in fields and "cols" in fields:
                try:
                    shape = (int(fields["rows"]), int(fields["cols"]))
                except ValueError:
                    raise ValidationError(f"malformed CSV header: {line!r}") from None
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise ValidationError(f"malformed CSV row: {line!r}") from None
    return rows, shape


def distribution_from_csv(text: str, normalize: bool = False) -> Distribution:
    rows, _ = _parse_rows(text)
    if len(rows) != 1:
        raise ValidationError(f"expected a single CSV row, found {len(rows)}")
    return make_distribution(rows[0], normalize=normalize)


def _matrix_from_csv(text: str) -> np.ndarray:
    rows, shape = _parse_rows(text)
    if not rows:
        raise ValidationError("no data rows in CSV input")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError("CSV rows have inconsistent lengths")
    a = np.asarray(rows, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValidationError(f"CSV header declares {shape}, data has {a.shape}")
    return a


def joint2_from_csv(text: str, normalize: bool = False) -> Distribution:
    return make_joint2(_matrix_from_csv(text), normalize=normalize)


def channel_from_csv(text: str, normalize: bool = False) -> Channel:
    return make_channel(_matrix_from_csv(text), normalize=normalize)
