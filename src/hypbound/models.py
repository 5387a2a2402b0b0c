"""Points and metrics of the hyperbolic plane in its standard conformal models.

Four models are supported: the unit disc, the upper half-plane, the right
half-plane, and the punctured disc. All distances use the curvature -1
normalization (disc density 2/(1-|z|^2), half-plane density 1/Im).
"""

from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from typing import Callable

from .errors import DomainError, NumericalError, UnsupportedError, ValidationError

# Points closer than this to a model boundary are rejected: distances to
# such points are numerically meaningless in double precision.
BOUNDARY_MARGIN = 1e-14


class Model(Enum):
    DISC = "disc"
    UPPER_HALF_PLANE = "upper_half_plane"
    RIGHT_HALF_PLANE = "right_half_plane"
    PUNCTURED_DISC = "punctured_disc"


# The members as constants: reading one off the Enum class costs about 0.1 us on
# Python 3.11, and the membership and distance tests below run for every point.
_DISC, _UPPER, _RIGHT, _PUNCTURED = Model


def model_excess(value: complex, model: Model) -> float:
    """Signed distance-like excess of ``value`` over ``model``: positive
    outside, negative inside, and never negative at the puncture. It is the
    one membership rule: points are refused above -BOUNDARY_MARGIN, images
    above 1e-12."""
    if model is _DISC:
        return abs(value) - 1.0
    if model is _UPPER:
        return -value.imag
    if model is _RIGHT:
        return -value.real
    if model is _PUNCTURED:
        r = abs(value)
        return r - 1.0 if r > 0.5 else -r  # max(r - 1, -r), without the call
    raise ValidationError(f"unknown model {model!r}")


class Frozen:
    """Base of the package's immutable slots classes, which compare, hash,
    print and match as the frozen dataclasses they stand for. A subclass
    names its constructor's arguments in ``__match_args__`` and the fields
    that ``==``, ``hash`` and ``repr`` read, in order, in ``_fields``; its
    ``__init__`` validates and sets each slot once, through ``_init``. A copy
    or an unpickled object is rebuilt from those arguments through the
    constructor, which validates it again."""

    __slots__ = ()
    __match_args__: tuple = ()
    _fields: tuple = ()

    def _init(self, *values) -> None:
        """Set the slots named by ``__match_args__`` to ``values``, in order."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    # FrozenInstanceError is imported where it is raised: dataclasses, with
    # inspect, costs more than the rest of an import of this module
    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


class ModelPoint(Frozen):
    """A point of the hyperbolic plane tagged with the model it lives in: an
    immutable slots class, cheap to build, that compares, hashes and prints
    as the frozen dataclass ``ModelPoint(value, model)``."""

    __slots__ = __match_args__ = _fields = ("value", "model")

    def __init__(self, value: complex, model: Model) -> None:
        value = complex(value)
        if not cmath.isfinite(value):
            raise ValidationError(f"non-finite point {value!r}")
        if model_excess(value, model) > -BOUNDARY_MARGIN:
            raise ValidationError(f"{value!r} is not interior to the {model.value} model")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "model", model)

    @classmethod
    def disc(cls, value: complex) -> "ModelPoint":
        return cls(value, _DISC)

    @classmethod
    def upper(cls, value: complex) -> "ModelPoint":
        return cls(value, _UPPER)

    @classmethod
    def right(cls, value: complex) -> "ModelPoint":
        return cls(value, _RIGHT)

    @classmethod
    def punctured(cls, value: complex) -> "ModelPoint":
        return cls(value, _PUNCTURED)

    def to_dict(self) -> dict:
        return {"model": self.model.value, "re": self.value.real, "im": self.value.imag}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelPoint":
        return cls(complex(d["re"], d["im"]), Model(d["model"]))


class HalfDistancePair(Frozen):
    """sinh and cosh of half the hyperbolic distance between two disc points.

    Satisfies c**2 - s**2 = 1 up to relative 1e-12.
    """

    __slots__ = __match_args__ = _fields = ("s", "c")

    def __init__(self, s: float, c: float) -> None:
        if s < 0.0 or c < 1.0 - 1e-12:
            raise ValidationError(f"invalid half-distance pair ({s}, {c})")
        if abs(c * c - s * s - 1.0) > 1e-12 * max(1.0, c * c):
            raise ValidationError(f"half-distance pair ({s}, {c}) violates c^2 - s^2 = 1")
        self._init(s, c)


def _dist_disc(u: complex, v: complex) -> float:
    # 2*atanh of the Moebius-invariant quotient; stable near the boundary.
    t = abs(u - v) / abs(1.0 - u * v.conjugate())
    if t >= 1.0:
        raise NumericalError("points too close to the boundary for a finite distance")
    return 2.0 * math.atanh(t)


def disc_radius_limit(tolerance: float) -> float:
    """The largest R at which ``_dist_disc`` is within ``tolerance`` of the
    exact distance between any two points at most R/2 from the origin. The
    roundings of |u - v| and 1 - u conj(v) are scaled by cosh(R/2)^2 and
    cosh(R/2) cosh(R/4)^2, so the error grows like eps e^R (about half of
    that was the worst measured); the limit allows 2 eps e^R."""
    return math.log(tolerance / (2.0 * sys.float_info.epsilon))


def _dist_upper(u: complex, v: complex) -> float:
    # sinh(d/2) = |u-v| / (2 sqrt(Im u Im v)); asinh keeps small and large
    # separations accurate where the acosh form would lose digits.
    return 2.0 * math.asinh(abs(u - v) / (2.0 * math.sqrt(u.imag * v.imag)))


def dist(u: ModelPoint, v: ModelPoint) -> float:
    """Hyperbolic distance between two points of the same model."""
    if u.model is not v.model:
        raise DomainError(f"model mismatch: {u.model} vs {v.model}")
    if u.model is _DISC:
        return _dist_disc(u.value, v.value)
    if u.model is _UPPER:
        return _dist_upper(u.value, v.value)
    if u.model is _RIGHT:
        # single source of truth: rotate onto the upper half-plane
        return _dist_upper(1j * u.value, 1j * v.value)
    from .covering import punctured_dist  # deferred: covering depends on models

    return punctured_dist(u, v)


def half_sinh_cosh(u: ModelPoint, v: ModelPoint) -> HalfDistancePair:
    """sinh and cosh of half the distance between disc points, by the
    quotient formulas |u-v| and |1-u*conj(v)| over sqrt((1-|u|^2)(1-|v|^2))."""
    if u.model is not _DISC or v.model is not _DISC:
        raise ValidationError("half_sinh_cosh is defined for disc points only")
    den = math.sqrt((1.0 - abs(u.value) ** 2) * (1.0 - abs(v.value) ** 2))
    s = abs(u.value - v.value) / den
    c = abs(1.0 - u.value * v.value.conjugate()) / den
    return HalfDistancePair(s, c)


def density_punctured(z: ModelPoint) -> float:
    """Riemannian density -1/(|z| log|z|) of the punctured disc; always >= e."""
    if z.model is not _PUNCTURED:
        raise ValidationError("density_punctured needs a punctured-disc point")
    r = abs(z.value)
    return -1.0 / (r * math.log(r))


# Fixed isometries onto the upper half-plane, the hub of the model
# conversions, as matrices (a, b, c, d) of w -> (a w + b)/(c w + d): rotation
# by i for the right half-plane, the Cayley map w -> i(1 + w)/(1 - w) for the
# disc. The adjugate is the inverse map.
TO_UPPER = {
    Model.UPPER_HALF_PLANE: (1.0, 0.0, 0.0, 1.0),
    Model.RIGHT_HALF_PLANE: (1j, 0.0, 0.0, 1.0),
    Model.DISC: (1j, 1j, -1.0, 1.0),
}


def _mapply(m: tuple, z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def _adjugate(m: tuple) -> tuple:
    """(d, -b, -c, a): the inverse map, as a matrix scaled by the determinant."""
    a, b, c, d = m
    return (d, -b, -c, a)


def convert(p: ModelPoint, target: Model) -> ModelPoint:
    """Move a point to another model by a fixed isometry (Cayley map for
    disc <-> upper half-plane, rotation by i for the right half-plane)."""
    if p.model is target:
        return p
    if target is _PUNCTURED or p.model is _PUNCTURED:
        raise UnsupportedError("no global isometry involves the punctured disc")
    return ModelPoint(_mapply(_adjugate(TO_UPPER[target]), _mapply(TO_UPPER[p.model], p.value)),
                      target)


def _simpson(f: Callable, a: float, b: float) -> float:
    """Composite Simpson for ``f`` of a numpy array of nodes, with panel
    doubling until two estimates agree to 1e-9, up to 2**20 panels."""
    import numpy as np  # the oracle alone of this module uses numpy

    n = 8
    prev = None
    while n <= 2 ** 20:
        t = np.linspace(a, b, n + 1)
        y = f(t)
        h = (b - a) / n
        s = (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        if prev is not None and abs(s - prev) < 1e-9:
            return float(s)
        prev = s
        n *= 2
    raise NumericalError("quadrature did not converge within the panel cap")


def _oracle_disc(u: complex, v: complex) -> float:
    # geodesic from u to v pulled through the automorphism sending u to 0;
    # for u = 0 this is the straight radial segment.
    xi = (v - u) / (1.0 - u.conjugate() * v)
    scale = 1.0 - abs(u) ** 2

    def integrand(t):
        s = t * xi
        den = 1.0 + u.conjugate() * s
        g = (s + u) / den
        dg = xi * scale / (den * den)
        return 2.0 * abs(dg) / (1.0 - abs(g) ** 2)

    return _simpson(integrand, 0.0, 1.0)


def _oracle_upper(u: complex, v: complex) -> float:
    import numpy as np

    if abs(u.real - v.real) <= 1e-12 * max(1.0, abs(u), abs(v)):
        # vertical geodesic: straight segment, density 1/Im
        step = v - u

        def integrand(t):
            return abs(step) / (u + t * step).imag

        return _simpson(integrand, 0.0, 1.0)
    # semicircle centered on the real axis; arc length element r*dtheta and
    # density 1/(r sin theta) cancel the radius exactly
    x0 = (abs(v) ** 2 - abs(u) ** 2) / (2.0 * (v.real - u.real))
    th_u = math.atan2(u.imag, u.real - x0)
    th_v = math.atan2(v.imag, v.real - x0)

    def integrand(t):
        return 1.0 / np.sin(t)

    return abs(_simpson(integrand, th_u, th_v))


def _oracle_right(u: complex, v: complex) -> float:
    import numpy as np

    if abs(u.imag - v.imag) <= 1e-12 * max(1.0, abs(u), abs(v)):
        step = v - u

        def integrand(t):
            return abs(step) / (u + t * step).real

        return _simpson(integrand, 0.0, 1.0)
    # semicircle centered on the imaginary axis, angle measured from Re > 0
    y0 = (abs(v) ** 2 - abs(u) ** 2) / (2.0 * (v.imag - u.imag))
    ph_u = math.atan2(u.imag - y0, u.real)
    ph_v = math.atan2(v.imag - y0, v.real)

    def integrand(t):
        return 1.0 / np.cos(t)

    return abs(_simpson(integrand, ph_u, ph_v))


def dist_oracle(u: ModelPoint, v: ModelPoint) -> float:
    """Distance by adaptive quadrature of the Riemannian density along the
    geodesic; an independent check of :func:`dist` (punctured disc excluded)."""
    if u.model is not v.model:
        raise DomainError(f"model mismatch: {u.model} vs {v.model}")
    if u.model is _PUNCTURED:
        raise DomainError("no quadrature oracle for the punctured disc")
    if u.value == v.value:
        return 0.0
    if u.model is _DISC:
        return _oracle_disc(u.value, v.value)
    if u.model is _UPPER:
        return _oracle_upper(u.value, v.value)
    return _oracle_right(u.value, v.value)
