"""The universal covering exp(2 pi i zeta) of the punctured disc by the upper
half-plane: distance by the nearest deck translate, winding-number degree,
and closed-form lifts of punctured-disc self-maps."""

from __future__ import annotations

import cmath
import math
from typing import Optional, Tuple

from .errors import DomainError, NumericalError, PreconditionError, ValidationError
from .holomaps import HoloMap, declared_degree, reference_degree
from .models import _PUNCTURED, _UPPER, Frozen, ModelPoint, _dist_upper


def _cover(zeta: complex) -> complex:
    return cmath.exp(2j * math.pi * zeta)


def cover_pi(zeta: ModelPoint) -> ModelPoint:
    """The covering map zeta -> exp(2 pi i zeta), upper half-plane onto the
    punctured disc; the image modulus is exp(-2 pi Im zeta)."""
    if zeta.model is not _UPPER:
        raise ValidationError("covering map takes an upper half-plane point")
    return ModelPoint(_cover(zeta.value), _PUNCTURED)


def _principal_value(z: complex) -> complex:
    # Re = arg z / (2 pi) in (-1/2, 1/2], Im = -log|z| / (2 pi)
    return complex(cmath.phase(z) / math.tau, -math.log(abs(z)) / math.tau)


def principal_lift(z: ModelPoint) -> ModelPoint:
    """The lift with argument in (-pi, pi]."""
    if z.model is not _PUNCTURED:
        raise ValidationError("principal_lift takes a punctured-disc point")
    return ModelPoint(_principal_value(z.value), _UPPER)


def _nearest_deck(u: complex, v: complex) -> Tuple[float, int]:
    """The distance from the deck orbit u + k to v, and the integer k that
    attains it. The distance grows with |Re(u - v) + k|, so k is
    floor(Re(v - u)) or the next integer; a tie goes to the lower one."""
    k = math.floor(v.real - u.real)
    lower = _dist_upper(u + k, v)
    upper = _dist_upper(u + (k + 1), v)
    return (lower, k) if lower <= upper else (upper, k + 1)


def punctured_dist(z: ModelPoint, a: ModelPoint) -> float:
    """Distance on the punctured disc: the infimum of upper half-plane
    distances between lifts, realized by the nearest deck translate."""
    if z.model is not _PUNCTURED or a.model is not _PUNCTURED:
        raise ValidationError("punctured_dist takes punctured-disc points")
    return _nearest_deck(_principal_value(z.value), _principal_value(a.value))[0]


class DegreeResult(Frozen):
    """Integer winding degree with the residual distance of the raw contour
    integral from that integer and the quadrature resolution used."""

    __slots__ = __match_args__ = _fields = ("value", "residual", "panels")

    def __init__(self, value: int, residual: float, panels: int) -> None:
        if residual >= 1e-6:
            raise NumericalError(
                f"contour integral residual {residual:.3e} does not certify an integer")
        self._init(value, residual, panels)

    def to_dict(self) -> dict:
        return {"value": self.value, "residual": self.residual, "panels": self.panels}


def degree_contour(f: HoloMap) -> DegreeResult:
    """Degree of a punctured-disc self-map as the winding number of its
    image of the circle of radius 1/2, by trapezoid quadrature of the
    logarithmic derivative (spectrally accurate on the periodic integrand)."""
    if f.model is not _PUNCTURED:
        raise DomainError("degree is defined for punctured-disc maps")
    if f.contraction_only:
        raise DomainError("map must be holomorphic")
    panels = 64
    prev: Optional[complex] = None
    while panels <= 2 ** 18:
        total = 0.0 + 0.0j
        for j in range(panels):
            z = 0.5 * cmath.exp(2j * math.pi * j / panels)
            # f'/f, not f: z^2000 underflows to 0 on this circle but does not vanish
            try:
                ld = f.log_derivative(z)
            except ZeroDivisionError:
                ld = math.inf
            if not cmath.isfinite(ld):
                raise DomainError("map vanishes on the contour")
            total += ld * z
        estimate = total / panels
        if prev is not None and abs(estimate - prev) < 1e-8:
            nearest = round(estimate.real)
            return DegreeResult(int(nearest), abs(estimate - nearest), panels)
        prev = estimate
        panels *= 2
    raise NumericalError("contour quadrature did not converge")


class LiftedMap(Frozen):
    """A lift of a punctured-disc self-map to the upper half-plane: the
    map's closed-form lift, pinned by its value at an anchor point.

    The lift satisfies pi(lift(zeta)) = f(pi(zeta)) and
    lift(zeta + 1) = lift(zeta) + degree.
    """

    __slots__ = __match_args__ = _fields = ("base_map", "anchor", "anchor_value", "deck_offset",
                                            "degree")

    def __init__(self, base_map: HoloMap, anchor: ModelPoint, anchor_value: complex,
                 deck_offset: int, degree: int) -> None:
        self._init(base_map, anchor, anchor_value, deck_offset, degree)


def lift_map(f: HoloMap, anchor: ModelPoint, deck_offset: int = 0) -> LiftedMap:
    """Construct the lift of f whose value at the anchor is the principal
    lift of f(pi(anchor)) shifted by ``deck_offset``."""
    if anchor.model is not _UPPER:
        raise ValidationError("anchor must be an upper half-plane point")
    degree = declared_degree(f)
    if degree is None or degree < 1:
        raise PreconditionError("map must be a punctured-disc map of positive degree")
    image = f.value_at(_cover(anchor.value))
    return LiftedMap(f, anchor, _principal_value(image) + deck_offset, deck_offset, degree)


def lift_map_eval(lifted: LiftedMap, zeta: ModelPoint) -> ModelPoint:
    """Evaluate the lift at a point: the map's closed-form lift, shifted by
    the integer that pins it to ``anchor_value`` at the anchor."""
    if zeta.model is not _UPPER:
        raise ValidationError("lift evaluation takes an upper half-plane point")
    f = lifted.base_map
    k = round(lifted.anchor_value.real - f.lift(lifted.anchor.value).real)
    return ModelPoint(f.lift(zeta.value) + k, _UPPER)


def normalized_lift(f: HoloMap, h: HoloMap, anchor: ModelPoint) -> Tuple[LiftedMap, float]:
    """Lift f and pick the integer deck translation that brings its value at
    the anchor closest to the reference self-covering's lift there. The
    returned displacement equals punctured_dist(f(a), h(a)) for a = pi(anchor)."""
    reference_degree(f, h)
    base = lift_map(f, anchor).anchor_value
    displacement, offset = _nearest_deck(base, h.lift(anchor.value))
    return lift_map(f, anchor, offset), displacement
