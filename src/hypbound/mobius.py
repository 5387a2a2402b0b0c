"""Self-maps (``HoloMap``, ``apply``) and the fractional-linear ones: composition,
classification, fixed points and axes, disc automorphisms."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, IntegrityError, NumericalError, ValidationError
from .models import TO_UPPER, Model, ModelPoint, _adjugate, _mapply, convert, dist, model_excess

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
    raw complex evaluation (``value_at``), a closed-form derivative, a JSON
    round trip and, for punctured-disc maps of declared degree, a
    closed-form lift. ``contraction_only`` marks variants that contract the
    metric without being holomorphic; ``self_covering`` marks the maps
    z -> e^{i t} z^m of the punctured disc."""

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


@dataclass(frozen=True)
class Mobius(HoloMap):
    """A fractional-linear self-map w -> (a*w + b)/(c*w + d) of its declared
    model, normalized to determinant 1 on construction."""

    a: complex
    b: complex
    c: complex
    d: complex
    model: Model

    def __post_init__(self) -> None:
        a, b, c, d = (complex(self.a), complex(self.b), complex(self.c), complex(self.d))
        for name, entry in zip("abcd", (a, b, c, d)):
            if not cmath.isfinite(entry):
                raise ValidationError(f"entry {name} must be finite, not {entry!r}")
        det = a * d - b * c
        if abs(det) < 1e-12:
            raise ValidationError("matrix is numerically singular")
        s = cmath.sqrt(det)
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        object.__setattr__(self, "c", c / s)
        object.__setattr__(self, "d", d / s)

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


@dataclass(frozen=True)
class MobiusClass:
    """Conjugacy classification of a model-preserving map.

    ``fixed_points`` may contain INF; for elliptic maps the interior fixed
    point comes first. ``axis`` is the pair of boundary fixed points of a
    hyperbolic map, ``translation_length`` its displacement along the axis.
    """

    kind: str  # identity | elliptic | parabolic | hyperbolic
    fixed_points: tuple
    axis: Optional[tuple] = None
    translation_length: Optional[float] = None


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
    if m.model is Model.DISC:
        return abs(a - d.conjugate()) <= tol and abs(b - c.conjugate()) <= tol
    if m.model is Model.UPPER_HALF_PLANE:
        return max(abs(a.imag), abs(b.imag), abs(c.imag), abs(d.imag)) <= tol
    if m.model is Model.RIGHT_HALF_PLANE:
        return max(abs(a.imag), abs(d.imag), abs(b.real), abs(c.real)) <= tol
    return False


def build_disc_automorphism(a: ModelPoint, theta: float) -> Mobius:
    """The disc automorphism w -> e^{i theta} (w - a)/(1 - conj(a) w),
    sending a to 0. Every such map is a hyperbolic isometry of the disc."""
    if a.model is not Model.DISC:
        raise ValidationError("center must be a disc point")
    rot = cmath.exp(1j * theta)
    return Mobius(rot, -rot * a.value, -a.value.conjugate(), 1.0, Model.DISC)


def _axis_matrix(e1: complex, e2: complex) -> tuple:
    """Real matrix of positive determinant sending the geodesic with real
    endpoints e1, e2 (one may be INF) onto the imaginary axis."""
    if is_infinite(e1):
        e1, e2 = e2, e1
    if is_infinite(e2):
        return (1.0, -e1.real, 0.0, 1.0)
    return (1.0, -max(e1.real, e2.real), 1.0, -min(e1.real, e2.real))


def _to_imaginary_axis(p: complex, q: complex) -> tuple:
    """Real matrix of determinant 1 moving the geodesic through upper
    half-plane points p, q onto the imaginary axis with q at i and p at
    exp(d)*i above it. The unit determinant makes its adjugate the inverse,
    so conjugations by it stay unit too, even for points near the boundary."""
    if abs(p.real - q.real) <= 1e-12 * max(1.0, abs(p), abs(q)):
        m = _axis_matrix(q.real, INF)
    else:
        x0 = (abs(p) ** 2 - abs(q) ** 2) / (2.0 * (p.real - q.real))
        r = math.hypot(p.real - x0, p.imag)
        # near-vertical geodesics put the center far out and one endpoint
        # suffers cancellation in x0 -/+ r; recover it from the root product
        # x0^2 - r^2 = (2 x0 - Re p) Re p - (Im p)^2, which stays accurate
        e_far = x0 + math.copysign(r, x0)
        e_near = ((2.0 * x0 - p.real) * p.real - p.imag * p.imag) / e_far
        m = _axis_matrix(e_near, e_far)
    yq = _mapply(m, q).imag
    m = _mmul((1.0, 0.0, 0.0, yq), m)
    if _mapply(m, p).imag < 1.0:
        m = _mmul((0.0, -1.0, 1.0, 0.0), m)  # flip fixing i
    s = math.sqrt(m[0] * m[3] - m[1] * m[2])
    return (m[0] / s, m[1] / s, m[2] / s, m[3] / s)


def hyperbolic_pull(p: ModelPoint, q: ModelPoint) -> Mobius:
    """The hyperbolic automorphism whose axis passes through p and q and
    which maps q to p; the identity when p equals q.

    Built by conjugating the standard dilation: the geodesic through p, q is
    moved onto the imaginary axis of the upper half-plane, a dilation by
    exp(dist(p, q)) is applied there, and the conjugation is undone.
    """
    if p.model is not q.model:
        raise DomainError(f"model mismatch: {p.model} vs {q.model}")
    if p.value == q.value:
        return Mobius.identity(p.model)
    if p.model is Model.PUNCTURED_DISC:
        raise DomainError("no Moebius isometries act on the punctured disc")
    length = dist(p, q)
    hub = TO_UPPER[p.model]
    pu = _mapply(hub, p.value)
    qu = _mapply(hub, q.value)
    t = _to_imaginary_axis(pu, qu)
    dil = (math.exp(length / 2.0), 0.0, 0.0, math.exp(-length / 2.0))
    h_upper = _mmul(_mmul(_adjugate(t), dil), t)
    h_model = _mmul(_mmul(_adjugate(hub), h_upper), hub)
    result = Mobius(*h_model, p.model)
    if abs(result.apply_value(q.value) - p.value) > 1e-8 * max(1.0, abs(p.value)):
        raise NumericalError("pull-back construction lost too much precision")
    return result


def _axis_to_upper(axis: tuple, model: Model) -> tuple:
    """Boundary fixed points transported to the real line (or INF)."""
    out = []
    for e in axis:
        # the disc's boundary point 1 is the pole of the Cayley map
        if is_infinite(e) or (model is Model.DISC and abs(1.0 - e) < 1e-12):
            out.append(INF)
        else:
            out.append(_mapply(TO_UPPER[model], e))
    return tuple(out)


def dist_to_axis(w: ModelPoint, axis: tuple, model: Model) -> float:
    """Hyperbolic distance from a point to the geodesic with the given
    boundary endpoints (endpoints in model coordinates, INF allowed)."""
    wu = convert(w, Model.UPPER_HALF_PLANE).value
    z = _mapply(_axis_matrix(*_axis_to_upper(axis, model)), wu)
    return math.asinh(abs(z.real) / z.imag)

