"""In-memory span tracer that times entrokit's layers from outside the library.

Nothing inside the library changes. `Tracer.install` swaps each public
function of each layer module (the names in its `__all__`), and the
validating `__post_init__` of each public dataclass, for a timing wrapper
in every entrokit namespace that holds it; `uninstall` puts the originals
back. A span is named `<layer>.<function>`, so the layer of a span is the
text before the first dot.

Besides the eight modules, three boundaries get spans of their own:
`rng.*` for the sweep's per-trial seed hashing and generator construction,
`io.read_source` and `io.emit` for the CLI's file read and its result
writer, which live in `entrokit.cli`.

Every span updates running totals (calls, inclusive and self time,
elements) at its close; the first `SPAN_CAP` spans are also kept with
their start, end, parent and trial id and written out when the benchmark
ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = (
    "deformed_log",
    "distributions",
    "entropy",
    "divergence",
    "geometry",
    "verify",
    "io",
    "cli",
)

# (module, attribute, span name); patched where present, skipped otherwise
EXTRA_FUNCTIONS = (
    ("entrokit.verify", "_child_seed", "rng.child_seed"),
    ("numpy.random", "default_rng", "rng.default_rng"),
    ("entrokit.cli", "_read_source", "io.read_source"),
    ("entrokit.cli", "_emit", "io.emit"),
)
EXTRA_METHODS = (("entrokit.verify", "VerificationReport", "to_json", "verify.to_json"),)
# Spans (and trial labels) kept with their times; later ones only feed the totals
SPAN_CAP = 50_000


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


def _field_size(obj) -> int:
    """Element count of a dataclass's first field (the validated array)."""
    first = dataclasses.fields(obj)[0].name
    return int(np.size(getattr(obj, first)))


class Tracer:
    def __init__(self, record: bool = True):
        self.stats: dict[str, list] = {}  # key -> [calls, incl_s, self_s, elems]
        self.edges: dict[tuple, int] = {}  # (parent key, key) -> calls
        self.spans: list[tuple] = []  # (id, key, start, end, parent id, trial)
        self.trial_labels: list[str] = []
        self.dropped = 0
        self.record = record
        self.trial = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, key, fn, elems=None, label=None, starts_trial=False):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key if label is None else f"{key}:{label(args)}"
            if starts_trial:
                tracer.trial += 1
                if len(tracer.trial_labels) < SPAN_CAP:
                    tracer.trial_labels.append(f"{label(args)}:{args[2]}")
            frame = [name, tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(frame, t0, t1, elems(args[0]) if elems else 0)

        return traced

    def _close(self, frame, t0, t1, n):
        name, sid, child = frame
        d = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += d
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += d
        st[2] += d - child
        st[3] += n
        edge = (parent[0] if parent else None, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if self.record:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, t0, t1, parent[1] if parent else -1, self.trial))
            else:
                self.dropped += 1

    def _patch_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "entrokit" or mod_name.startswith("entrokit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self, only: set[str] | None = None) -> "Tracer":
        """Wrap every layer's public functions, or only the span keys in `only`."""
        wanted = (lambda key: True) if only is None else only.__contains__
        for layer in LAYERS:
            mod = importlib.import_module(f"entrokit.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                key = f"{layer}.{attr}"
                if not wanted(key):
                    continue
                if isinstance(obj, types.FunctionType):
                    if key == "verify.run_single":
                        wrapper = self.wrap(
                            key, obj, label=lambda a: a[1], starts_trial=True
                        )
                    else:
                        wrapper = self.wrap(key, obj)
                    self._patch_everywhere(obj, wrapper)
                elif isinstance(obj, type) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    setattr(obj, "__post_init__", self.wrap(key, original, elems=_field_size))
                    self._undo.append((obj, "__post_init__", original))
        for mod_name, attr, key in EXTRA_FUNCTIONS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None) if mod else None
            if original is None or not wanted(key):
                continue
            wrapper = self.wrap(key, original)
            if mod_name.startswith("entrokit"):
                self._patch_everywhere(original, wrapper)
            else:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))
        for mod_name, cls_name, attr, key in EXTRA_METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls else None
            if original is None or not wanted(key):
                continue
            setattr(cls, attr, self.wrap(key, original))
            self._undo.append((cls, attr, original))
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries ----------------------------------------------------------

    def matching(self, pred) -> tuple[int, float, float, int]:
        """Summed (calls, inclusive s, self s, elements) over keys matching pred."""
        calls = incl = self_s = elems = 0
        for key, st in self.stats.items():
            if pred(key):
                calls += st[0]
                incl += st[1]
                self_s += st[2]
                elems += st[3]
        return calls, incl, self_s, elems

    def layer(self, name: str) -> tuple[int, float, float, int]:
        return self.matching(lambda key: layer_of(key) == name)

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "trial"],
            "spans": self.spans,
            "dropped": self.dropped,
            "trial_labels": self.trial_labels,
            "totals": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2], "elems": v[3]}
                       for k, v in sorted(self.stats.items())},
        }
