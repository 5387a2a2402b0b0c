"""Margin reports for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


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
