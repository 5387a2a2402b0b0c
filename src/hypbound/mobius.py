"""Self-maps (``HoloMap``, ``apply``) and the fractional-linear ones: composition,
disc automorphisms, the hyperbolic pull, and the questions of isometry and axis,
each read from the map's matrix on the upper half-plane."""

from __future__ import annotations

import cmath
import math
import sys
from typing import Optional

from .errors import DomainError, IntegrityError, NumericalError, ValidationError
from .models import (_DISC, _PUNCTURED, TO_UPPER, Frozen, Model, ModelPoint, _adjugate,
                     _mapply, model_excess)


def _mmul(m1: tuple, m2: tuple) -> tuple:
    """The product of two matrices (a, b, c, d): the map m1 after m2."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


class HoloMap:
    """Base class for the self-maps of a model. Concrete variants implement
    raw complex evaluation (``value_at``), a JSON round trip and, for
    punctured-disc maps of declared degree, a closed-form lift. Only the maps
    that ``degree_contour`` reaches have a closed-form ``_derivative``: the
    punctured-disc maps, ``Mobius`` (as a punctured-disc automorphism) and
    ``Composition``; it refuses disc and half-plane maps before asking.
    ``contraction_only`` marks variants that contract the metric without
    being holomorphic; ``self_covering`` marks the maps z -> e^{i t} z^m of
    the punctured disc. The package's maps are also ``Frozen``; the base
    itself holds no state."""

    __slots__ = ()
    model: Model
    contraction_only = False
    self_covering = False

    def value_at(self, z: complex) -> complex:
        """Raw evaluation, no model validation of argument or image."""
        raise NotImplementedError

    def _derivative(self, z: complex) -> complex:
        raise NotImplementedError

    def log_derivative(self, z: complex) -> complex:
        return self._derivative(z) / self.value_at(z)

    def declared_degree(self) -> Optional[int]:
        """Analytic degree of a punctured-disc map; None for other maps."""
        return None

    def lift(self, zeta: complex) -> complex:
        """A lift L to the upper half-plane of a punctured-disc map f of
        declared degree: exp(2 pi i L(zeta)) = f(exp(2 pi i zeta)) and
        L(zeta + 1) = L(zeta) + degree. Any other lift differs by an integer."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __call__(self, p: ModelPoint) -> ModelPoint:
        return apply(self, p)


class Mobius(HoloMap, Frozen):
    """A fractional-linear self-map w -> (a*w + b)/(c*w + d) of its declared
    model, normalized to determinant 1 on construction."""

    __slots__ = __match_args__ = _fields = ("a", "b", "c", "d", "model")

    def __init__(self, a: complex, b: complex, c: complex, d: complex, model: Model) -> None:
        a, b, c, d, det = _finite_entries(a, b, c, d)
        if abs(det) < 1e-12:
            raise ValidationError("matrix is numerically singular")
        s = cmath.sqrt(det)
        self._init(a / s, b / s, c / s, d / s, model)

    def __reduce__(self):
        # the entries have determinant 1 already: a second root of it would round them
        return _unit_mobius, (type(self), *self.entries, self.model)

    @classmethod
    def identity(cls, model: Model) -> "Mobius":
        return cls(1.0, 0.0, 0.0, 1.0, model)

    @property
    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other (matrix product self * other)."""
        if self.model is not other.model:
            raise DomainError("cannot compose maps of different models")
        return Mobius(*_mmul(self.entries, other.entries), self.model)

    def inverse(self) -> "Mobius":
        return Mobius(*_adjugate(self.entries), self.model)

    def apply_value(self, z: complex) -> complex:
        den = self.c * z + self.d
        if den == 0:
            raise DomainError(f"{z!r} is a pole of the transformation")
        return (self.a * z + self.b) / den

    def value_at(self, z: complex) -> complex:
        return self.apply_value(z)  # a call, not an alias: a wrapped apply_value sees it

    def _derivative(self, z: complex) -> complex:
        den = self.c * z + self.d
        return 1.0 / (den * den)  # determinant is 1 after normalization

    def to_dict(self) -> dict:
        return {
            "variant": "mobius_automorphism",
            "model": self.model.value,
            "matrix": [[w.real, w.imag] for w in self.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mobius":
        """The map of a ``mobius_automorphism`` JSON form, refused unless it is
        an automorphism of its model."""
        a, b, c, dd = (complex(re, im) for re, im in d["matrix"])
        m = cls(a, b, c, dd, Model(d["model"]))
        if not is_isometry(m):
            raise ValidationError(f"matrix is not an automorphism of the {m.model.value} model")
        return m


def _finite_entries(a: complex, b: complex, c: complex, d: complex) -> tuple:
    """The entries as complex numbers and their determinant, refused unless
    every entry is finite."""
    entries = (complex(a), complex(b), complex(c), complex(d))
    for name, entry in zip("abcd", entries):
        if not cmath.isfinite(entry):
            raise ValidationError(f"entry {name} must be finite, not {entry!r}")
    a, b, c, d = entries
    return (*entries, a * d - b * c)


def _unit_mobius(cls: type, a: complex, b: complex, c: complex, d: complex,
                 model: Model) -> Mobius:
    """The copy or unpickled form of a Mobius of class ``cls``: its normalized
    entries, kept as they are once they are finite and their determinant is 1
    up to the rounding of its products."""
    a, b, c, d, det = _finite_entries(a, b, c, d)
    if not abs(det - 1.0) <= 1e-12 * (abs(a * d) + abs(b * c)):
        raise ValidationError(f"entries are not normalized: determinant {det!r}")
    m = object.__new__(cls)
    m._init(a, b, c, d, model)
    return m


def apply(m: HoloMap, z: ModelPoint) -> ModelPoint:
    """Apply a self-map to a point of its model (this is also
    ``holomaps.evaluate``). An image that ``ModelPoint`` refuses is an
    IntegrityError when it lies more than 1e-12 outside the model."""
    if z.model is not m.model:
        raise DomainError(f"point model {z.model} differs from map model {m.model}")
    w = m.value_at(z.value)
    try:
        return ModelPoint(w, m.model)
    except ValidationError:
        if model_excess(w, m.model) > 1e-12:
            raise IntegrityError(f"image {w!r} escapes the {m.model.value} model") from None
        raise


def _on_upper(m: Mobius) -> tuple:
    """m's entries conjugated by ``TO_UPPER`` (a punctured-disc map's as a disc
    map's) and divided by that matrix's determinant: the same map on the upper
    half-plane, still of determinant 1, whose entries are real exactly when m
    is an automorphism of the disc or of its half-plane."""
    hub = TO_UPPER[_DISC if m.model is _PUNCTURED else m.model]
    det = hub[0] * hub[3] - hub[1] * hub[2]
    return tuple([e / det for e in _mmul(_mmul(hub, m.entries), _adjugate(hub))])


def is_isometry(m: Mobius) -> bool:
    """Whether the map is an automorphism of its model (not merely a self-map):
    its entries on the upper half-plane are real within 1e-9, and on the
    punctured disc, whose automorphisms are the rotations, it fixes 0 too."""
    if max([abs(e.imag) for e in _on_upper(m)]) > 1e-9:
        return False
    return m.model is not _PUNCTURED or abs(m.b) <= 1e-9


def build_disc_automorphism(a: ModelPoint, theta: float) -> Mobius:
    """The disc automorphism w -> e^{i theta} (w - a)/(1 - conj(a) w),
    sending a to 0. Every such map is a hyperbolic isometry of the disc."""
    if a.model is not _DISC:
        raise ValidationError("center must be a disc point")
    rot = cmath.exp(1j * theta)
    return Mobius(rot, -rot * a.value, -a.value.conjugate(), 1.0, _DISC)


def hyperbolic_pull(p: ModelPoint, q: ModelPoint) -> Mobius:
    """The hyperbolic automorphism whose axis passes through p and q and
    which maps q to p; the identity when p equals q.

    In closed form on the upper half-plane: with q moved to i y_q by a real
    translation and x + i y_p the image of p, the product M of the half-turns
    about p and q translates by 2 d(p, q) along their geodesic, and its
    square root (M + I) / sqrt(tr M + 2) is the real matrix below over the
    root of its determinant y_p y_q (x^2 + (y_p + y_q)^2), a sum with no
    cancellation however near the boundary the points lie.
    """
    if p.model is not q.model:
        raise DomainError(f"model mismatch: {p.model} vs {q.model}")
    if p.value == q.value:
        return Mobius.identity(p.model)
    if p.model is _PUNCTURED:
        raise DomainError("no Moebius isometries act on the punctured disc")
    hub = TO_UPPER[p.model]
    pu = _mapply(hub, p.value)
    qu = _mapply(hub, q.value)
    x, yp, yq = pu.real - qu.real, pu.imag, qu.imag
    s = math.sqrt(yp * yq * (x * x + (yp + yq) ** 2))
    pull = ((x * x + yp * (yp + yq)) / s, x * yq * yq / s, x / s, yq * (yq + yp) / s)
    shift = (1.0, qu.real, 0.0, 1.0)
    h_upper = _mmul(_mmul(shift, pull), _adjugate(shift))
    result = Mobius(*_mmul(_mmul(_adjugate(hub), h_upper), hub), p.model)
    if abs(result.apply_value(q.value) - p.value) > 1e-8 * max(1.0, abs(p.value)):
        raise NumericalError("pull-back construction lost too much precision")
    return result


def dist_to_axis(w: ModelPoint, h: Mobius) -> float:
    """Hyperbolic distance from a point to the axis of a hyperbolic
    automorphism h, read from h's real entries a, b, c, d on the upper
    half-plane (Beardon & Minda): at z = x + i y there,
    sinh d = |c |z|^2 + (d - a) x - b| / (y sqrt(tr^2 - 4)), the fixed-point
    quadratic c z^2 + (d - a) z - b at z over the distance between its roots.
    Raises DomainError unless h is an automorphism and hyperbolic."""
    if w.model is not h.model:
        raise DomainError(f"point model {w.model} differs from map model {h.model}")
    if not is_isometry(h):
        raise DomainError("map is not an automorphism of its model")
    a, b, c, d = [e.real for e in _on_upper(h)]
    # tr^2 - 4 as (d - a)^2 + 4 b c, equal at determinant 1 and with no
    # cancellation near the identity. Each entry is a sum of products of h's
    # entries with the unit entries of TO_UPPER, rounded at most twice: it errs
    # by at most 2 eps s in s = |a| + |b| + |c| + |d|, and the discriminant by
    # about 4 s times that. Below 8 eps s^2 the map is parabolic or elliptic to
    # its rounding; a hyperbolic one of translation length l has 4 sinh^2(l/2)
    # there, which clears the band near the identity (s = 2) once l > 1e-7.
    s = abs(a) + abs(b) + abs(c) + abs(d)
    gap = (d - a) ** 2 + 4.0 * b * c
    if not gap > 8.0 * sys.float_info.epsilon * s * s:
        raise DomainError(f"map is not hyperbolic: tr^2 - 4 is {gap:.3e}")
    z = _mapply(TO_UPPER[h.model], w.value)
    x, y = z.real, z.imag
    return math.asinh(abs(c * (x * x + y * y) + (d - a) * x - b) / (y * math.sqrt(gap)))
