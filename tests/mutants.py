"""Mutants of the bound constants, and the campaigns that kill them.

A mutant is one patch of a constant function of ``hypbound.bounds``, which
both engines read: the scalar checks and the batch runners. It is killed when
a campaign of its budget reports a violation at every one of its seeds.
``KILLED`` lists the mutants that the campaigns kill, each with the campaign
and budget that kill it; ``tests/test_mutants.py`` holds them to it.
``SURVIVING`` lists those that no campaign kills at the budget given. A
survivor may be a true inequality with a sharper constant, as the paper's
constants need not be sharp; it is recorded, never asserted.

    PYTHONPATH=src python tests/mutants.py

prints the table of both lists: for each seed, the violations and the
first violating index.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple

from hypbound import CampaignConfig, bounds, run_campaign
from hypbound.cli import parse_family_spec

SEEDS = (1, 2)


class Mutant(NamedTuple):
    name: str
    target: str  # the function of hypbound.bounds it replaces
    patch: Callable  # the original function -> the mutant
    theorem: str
    family: str  # as verify --family spells it
    samples: int

    def config(self, seed: int, samples: int = 0) -> CampaignConfig:
        family, params = parse_family_spec(self.family)
        return CampaignConfig(self.theorem, family, samples or self.samples, seed,
                              family_params=params)


def _two_point_over(factor: float, form: bool) -> Callable:
    """The plain (``form`` False) or the sharp two-point constant divided by ``factor``."""
    def patch(original):
        def mutant(ops, dza, dab, dbz, sharp=False):
            constant = original(ops, dza, dab, dbz, sharp)
            return constant / factor if sharp == form else constant
        return mutant
    return patch


def _without_dza(original):
    """The two-point constant with d(z, a) dropped from its exponent."""
    return lambda ops, dza, dab, dbz, sharp=False: original(ops, 0.0 * dza, dab, dbz, sharp)


def _fixed_point_over(factor: float) -> Callable:
    """The fixed-point constant divided by ``factor``."""
    return lambda original: lambda *args: original(*args) / factor


def _punctured_power(p: int) -> Callable:
    """The punctured constant L^p in place of L^3; L^0 = 1 keeps the shape of L."""
    def patch(original):
        def mutant(ops, r, dza):
            _, growth = original(ops, r, dza)
            return growth ** p, growth
        return mutant
    return patch


TWO_POINT, SHARP = ("two_point", "mix:deg=5"), ("two_point_sharp", "blaschke:deg=16")
FIXED_POINT, PUNCTURED = ("fixed_point", "fixing:deg=4"), ("punctured", "exp:m=4,c=2")

KILLED = (
    Mutant("two-point / 10", "two_point_constant", _two_point_over(10.0, False),
           *TWO_POINT, 20000),
    Mutant("sharp / 10", "two_point_constant", _two_point_over(10.0, True), *SHARP, 20000),
    Mutant("fixed-point / 2", "fixed_point_constant", _fixed_point_over(2.0), *FIXED_POINT,
           20000),
    Mutant("fixed-point / 1.5", "fixed_point_constant", _fixed_point_over(1.5), *FIXED_POINT,
           20000),
    Mutant("punctured L^3 -> 1", "punctured_constant", _punctured_power(0), *PUNCTURED, 2000),
)

SURVIVING = (
    Mutant("two-point / 2", "two_point_constant", _two_point_over(2.0, False), *TWO_POINT,
           200000),
    Mutant("two-point / 5", "two_point_constant", _two_point_over(5.0, False), *TWO_POINT,
           200000),
    Mutant("sharp / 2", "two_point_constant", _two_point_over(2.0, True), *SHARP, 200000),
    Mutant("sharp / 5", "two_point_constant", _two_point_over(5.0, True), *SHARP, 200000),
    Mutant("two-point without d(z,a)", "two_point_constant", _without_dza, *TWO_POINT, 200000),
    Mutant("punctured L^3 -> L^2", "punctured_constant", _punctured_power(2), *PUNCTURED, 200000),
    Mutant("punctured L^3 -> L", "punctured_constant", _punctured_power(1), *PUNCTURED, 200000),
)


@contextlib.contextmanager
def applied(mutant: Mutant):
    """Replace the mutant's target in ``hypbound.bounds`` while the block runs."""
    original = getattr(bounds, mutant.target)
    setattr(bounds, mutant.target, mutant.patch(original))
    try:
        yield
    finally:
        setattr(bounds, mutant.target, original)


def violations(mutant: Mutant, seed: int, samples: int = 0) -> list:
    """The violating indices of the mutant's campaign at ``seed``."""
    with applied(mutant):
        report = run_campaign(mutant.config(seed, samples))
    return [v.witnesses["index"] for v in report.violations]


def table() -> str:
    """The markdown table of every mutant at its budget and seeds."""
    lines = ["| mutant | campaign | budget | violations | first violating index |",
             "|---|---|---|---|---|"]
    for mutant in KILLED + SURVIVING:
        found = [violations(mutant, seed) for seed in SEEDS]
        lines.append(" | ".join([
            f"| {mutant.name}", f"`{mutant.theorem} {mutant.family}`",
            f"{mutant.samples} samples, seeds {', '.join(map(str, SEEDS))}",
            ", ".join(str(len(v)) for v in found),
            ", ".join(str(v[0]) if v else "-" for v in found)]) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
