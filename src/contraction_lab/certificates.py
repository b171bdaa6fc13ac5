"""Verdict records and deterministic JSON serialization.

Every region or property check in the library returns a :class:`Certificate`
so that a claim is always accompanied by the margin it was established with
and, when it fails, by a concrete witness.  Serialization is byte-stable:
keys keep insertion order and floats are printed with 17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

__all__ = ["Certificate", "dumps_fixed", "write_json"]


# Every float of a JSON or CSV artifact: 17 significant digits, round-trip safe.
FLOAT_FORMAT = "%.17g"


def dumps_fixed(obj) -> str:
    """Serialize dicts/lists/scalars to JSON with deterministic float text.

    Unlike ``json.dumps`` this prints every float with ``FLOAT_FORMAT`` so
    output bytes do not depend on repr shortening heuristics.  Raises
    ``ValueError`` on NaN or infinity, which JSON cannot represent.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON cannot represent the float {obj!r}")
        return FLOAT_FORMAT % obj
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps_fixed(str(k))}: {dumps_fixed(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return dumps_fixed(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_fixed(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8, newline-terminated JSON."""
    text = dumps_fixed(obj) + "\n"  # serialize first: a refused value leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class JsonRecord:
    """Base of the verdict dataclasses: ``to_dict`` maps each field not named in
    ``_json_skip`` to its value, in declaration order; ``to_json`` is that as fixed JSON."""

    _json_skip: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in self._json_skip}

    def to_json(self) -> str:
        return dumps_fixed(self.to_dict())


@dataclass
class Certificate(JsonRecord):
    """Outcome of a numerical check.

    holds      -- whether the checked inequality held everywhere sampled
    margin     -- worst value observed (sign convention is per-check; for
                  region checks it is the largest eigenvalue seen, so any
                  positive margin is a violation)
    witness    -- sample achieving the worst case, e.g. {"x": [...], "c": [...]}
    grid_spec  -- description of the region/resolution that was examined
    note       -- free-form remark (entailments, tail bounds, caveats)
    """

    holds: bool
    margin: float
    witness: dict | None = None
    grid_spec: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "margin": float(self.margin),
            "witness": self.witness,
            "grid": self.grid_spec,
        }
        if self.note:
            out["note"] = self.note
        return out
