"""Margin reports for checked inequalities."""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .config import DEFAULT_TOLERANCE  # read as report.DEFAULT_TOLERANCE too


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte. json's
    indenting encoder is pure Python, and builds itself anew on every call:
    lists, tuples and str-keyed dicts, empty ones too, are written here, each
    str, int, finite float, bool or None in them inline in the container's
    loop; any other value, such as a non-finite float or a dict with a key
    that is not a str, and a value json refuses, by json.dumps."""
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    # each leaf json writes as its repr, or as its quoted str, is written in its
    # container's loop, without a call of _dumps; v - v is NaN for inf and NaN.
    # A container's parts are dropped before their join is copied between its
    # brackets: a report of many violations runs to megabytes
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        parts = []
        try:  # _quote refuses a key that is not a str, and sorted keys of mixed types
            for k in sorted(obj):
                v = obj[k]
                t = type(v)
                if t is str:
                    parts.append(f"{_quote(k)}: {_quote(v)}")
                elif t is int or t is float and v - v == 0.0:
                    parts.append(f"{_quote(k)}: {v!r}")
                elif t is bool:
                    parts.append(_quote(k) + (": true" if v else ": false"))
                elif v is None:
                    parts.append(_quote(k) + ": null")
                else:
                    parts.append(f"{_quote(k)}: {_dumps(v, inner)}")
        except TypeError:
            return _json(obj, nl)
        body = ("," + inner).join(parts)
        del parts
        return f"{{{inner}{body}{nl}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        parts = []
        for v in obj:
            t = type(v)
            if t is str:
                parts.append(_quote(v))
            elif t is int or t is float and v - v == 0.0:
                parts.append(f"{v!r}")
            elif t is bool:
                parts.append("true" if v else "false")
            elif v is None:
                parts.append("null")
            else:
                parts.append(_dumps(v, inner))
        body = ("," + inner).join(parts)
        del parts
        return f"[{inner}{body}{nl}]"
    return _json(obj, nl)


def _json(obj, nl: str) -> str:
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
