"""Margin reports for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .errors import ValidationError

THEOREM_TAGS = ("two_point", "two_point_sharp", "xjb", "fixed_point", "punctured", "qlo")

DEFAULT_TOLERANCE = 1e-9


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation: left side, right side, the constant in
    front of the right side, and the margin rhs - lhs."""

    theorem: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    witnesses: dict
    violated: bool

    def __post_init__(self) -> None:
        if self.theorem not in THEOREM_TAGS:
            raise ValidationError(f"unknown theorem tag {self.theorem!r}")

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


class Sides(NamedTuple):
    """An inequality evaluated, unreported: sides, constant, unserialised witnesses."""

    theorem: str
    lhs: float
    rhs: float
    constant: float
    inputs: dict

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def report(self, tolerance: float = DEFAULT_TOLERANCE, **extra: Any) -> BoundReport:
        """The report, with every input serialised and ``extra`` added."""
        witnesses = {k: v if isinstance(v, float) else v.to_dict() for k, v in self.inputs.items()}
        return BoundReport(self.theorem, self.lhs, self.rhs, self.constant, self.margin,
                           {**witnesses, **extra}, self.margin < -tolerance)
