"""Self-maps (``HoloMap``, ``apply``) and the fractional-linear ones: composition,
classification, fixed points and axes, disc automorphisms."""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .errors import DomainError, IntegrityError, NumericalError, ValidationError
from .models import (_DISC, _PUNCTURED, _RIGHT, _UPPER, TO_UPPER, Frozen, Model, ModelPoint,
                     _adjugate, _mapply, convert, model_excess)

# Boundary fixed point at infinity (never wrapped in a ModelPoint).
INF = complex(math.inf, 0.0)


def is_infinite(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


# raw 2x2 helpers used for internal conjugation arithmetic

def _mmul(m1: tuple, m2: tuple) -> tuple:
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
        a, b, c, dd = (complex(re, im) for re, im in d["matrix"])
        return cls(a, b, c, dd, Model(d["model"]))


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


class MobiusClass(Frozen):
    """Conjugacy classification of a model-preserving map.

    ``fixed_points`` may contain INF; for elliptic maps the interior fixed
    point comes first. ``axis`` is the pair of boundary fixed points of a
    hyperbolic map, ``translation_length`` its displacement along the axis.
    """

    __slots__ = __match_args__ = _fields = ("kind", "fixed_points", "axis", "translation_length")

    def __init__(self, kind: str, fixed_points: tuple, axis: Optional[tuple] = None,
                 translation_length: Optional[float] = None) -> None:
        # kind: identity | elliptic | parabolic | hyperbolic
        self._init(kind, fixed_points, axis, translation_length)


def _fixed_points(a: complex, b: complex, c: complex, d: complex) -> tuple:
    # solutions of c z^2 + (d - a) z - b = 0, with infinity when c = 0
    if abs(c) < 1e-14:
        if abs(d - a) < 1e-12:
            return (INF,)
        return (b / (d - a), INF)
    sq = cmath.sqrt((d - a) ** 2 + 4.0 * b * c)
    # avoid cancellation: take the sign matching (a - d), get the second
    # root from the product -b/c
    if ((a - d).real * sq.real + (a - d).imag * sq.imag) < 0.0:
        sq = -sq
    r1 = ((a - d) + sq) / (2.0 * c)
    if r1 == 0.0:
        return (0.0 + 0.0j, -(d - a) / c)
    return (r1, -b / (c * r1))


def _is_interior(z: complex, model: Model) -> bool:
    return not is_infinite(z) and model_excess(z, model) < 0.0


def classify(m: Mobius) -> MobiusClass:
    """Classify by the determinant-normalized trace: trace^2 above 4 is
    hyperbolic, below is elliptic, a 1e-9 band around 4 is parabolic."""
    a, b, c, d = m.entries
    if abs(b) < 1e-12 and abs(c) < 1e-12 and abs(a - d) < 1e-12:
        return MobiusClass("identity", ())
    tr2 = ((a + d) ** 2).real
    fps = _fixed_points(a, b, c, d)
    if abs(tr2 - 4.0) <= 1e-9:
        if len(fps) == 2 and not any(is_infinite(z) for z in fps):
            fps = ((fps[0] + fps[1]) / 2.0,)
        elif len(fps) == 2:
            fps = tuple(z for z in fps if is_infinite(z))
        return MobiusClass("parabolic", fps)
    if tr2 > 4.0:
        if len(fps) != 2:
            raise NumericalError("hyperbolic map without two fixed points")
        length = 2.0 * math.acosh(max(1.0, abs(a + d) / 2.0))
        return MobiusClass("hyperbolic", fps, axis=fps, translation_length=length)
    interior = [z for z in fps if _is_interior(z, m.model)]
    exterior = [z for z in fps if not _is_interior(z, m.model)]
    return MobiusClass("elliptic", tuple(interior + exterior))


def is_isometry(m: Mobius) -> bool:
    """Whether the map is an automorphism of its model (not merely a self-map).

    After determinant normalization the automorphism groups have rigid
    matrix shapes: conjugate-symmetric for the disc, real for the upper
    half-plane, and checkerboard real/imaginary for the right half-plane.
    """
    a, b, c, d = m.entries
    tol = 1e-9
    if m.model is _DISC:
        return abs(a - d.conjugate()) <= tol and abs(b - c.conjugate()) <= tol
    if m.model is _UPPER:
        return max(abs(a.imag), abs(b.imag), abs(c.imag), abs(d.imag)) <= tol
    if m.model is _RIGHT:
        return max(abs(a.imag), abs(d.imag), abs(b.real), abs(c.real)) <= tol
    return False


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


def _axis_to_upper(axis: tuple, model: Model) -> tuple:
    """Boundary fixed points transported to the real line (or INF)."""
    out = []
    for e in axis:
        # the disc's boundary point 1 is the pole of the Cayley map
        if is_infinite(e) or (model is _DISC and abs(1.0 - e) < 1e-12):
            out.append(INF)
        else:
            out.append(_mapply(TO_UPPER[model], e))
    return tuple(out)


def dist_to_axis(w: ModelPoint, axis: tuple, model: Model) -> float:
    """Hyperbolic distance from a point to the geodesic with the given
    boundary endpoints (endpoints in model coordinates, INF allowed): on the
    upper half-plane, sinh d = |Re P| / |Im P| for P = (z - e1)(conj z - e2),
    and |Re z - e1| / Im z when e2 is INF."""
    z = convert(w, _UPPER).value
    x, y = z.real, z.imag
    e1, e2 = sorted(e.real for e in _axis_to_upper(axis, model))  # INF last
    if math.isinf(e2):
        return math.asinh(abs(x - e1) / y)
    return math.asinh(abs((x - e1) * (x - e2) + y * y) / (y * (e2 - e1)))  # Re P, -Im P
