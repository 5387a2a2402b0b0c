"""Margin reports for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


class _Witnesses:
    """The ``witnesses`` field of a report: the dict it was given, or else
    its inputs as JSON values (maps and points through their ``to_dict``),
    derived on each read. ``dataclasses.replace`` passes the current
    witnesses on as given; pass ``witnesses=None`` with new inputs."""

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default: derive from the inputs
        given = report.__dict__["_given_witnesses"]
        return given if given is not None else {
            k: v if isinstance(v, float) else v.to_dict() for k, v in report.inputs.items()}

    def __set__(self, report, value) -> None:
        report.__dict__["_given_witnesses"] = value


@dataclass
class BoundReport:
    """One inequality evaluation: left side, right side, the constant in
    front of the right side, the inputs it was evaluated at (maps and points
    stay unserialised until asked for) and the tolerance of a violation."""

    theorem: str
    lhs: float
    rhs: float
    constant: float
    inputs: dict
    tolerance: float
    witnesses: dict | None = _Witnesses()

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def violated(self) -> bool:
        return self.margin < -self.tolerance

    def for_sample(self, seed: int, index: int) -> BoundReport:
        """This report with its witnesses serialised once and the campaign
        sample ``(seed, index)`` that replays it added. It drops the live
        inputs, so the violations a campaign keeps hold no map or point."""
        return BoundReport(self.theorem, self.lhs, self.rhs, self.constant, {},
                           self.tolerance, {**self.witnesses, "seed": seed, "index": index})

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
