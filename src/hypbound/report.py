"""Margin reports for checked inequalities."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

DEFAULT_TOLERANCE = 1e-9


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte. json's
    indenting encoder is pure Python: strings, ints, finite floats, lists and
    str-keyed dicts are written here, any other value by json.dumps."""
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int or kind is float and math.isfinite(obj):
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    inner = nl + "  "
    if obj and (kind is list or kind is tuple):
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + nl + "]"
    if obj and kind is dict:
        try:  # _quote refuses a key that is not a str, and sorted keys of mixed types
            return "{" + inner + ("," + inner).join(
                [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items())]) + nl + "}"
        except TypeError:
            pass
    # json escapes a newline in a string, so each one left starts a line to indent
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def witnesses(**values) -> dict:
    """A check's inputs as JSON: maps and points by their ``to_dict``, floats as they are."""
    return {k: v if isinstance(v, float) else v.to_dict() for k, v in values.items()}


@dataclass
class BoundReport:
    """One inequality evaluation: its two sides, the constant in front of the
    right side, the tolerance of a violation and its inputs as JSON witnesses."""

    theorem: str
    lhs: float
    rhs: float
    constant: float
    tolerance: float
    witnesses: dict

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def violated(self) -> bool:
        return self.margin < -self.tolerance

    def for_sample(self, seed: int, index: int) -> BoundReport:
        """This report with the campaign sample ``(seed, index)`` that
        replays it added to its witnesses."""
        return BoundReport(self.theorem, self.lhs, self.rhs, self.constant, self.tolerance,
                           {**self.witnesses, "seed": seed, "index": index})

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": fmt17(self.lhs),
            "rhs": fmt17(self.rhs),
            "constant": fmt17(self.constant),
            "margin": fmt17(self.margin),
            "violated": self.violated,
            "witnesses": self.witnesses,
        }
