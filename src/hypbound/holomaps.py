"""Self-map families of the hyperbolic models: Blaschke products, disc
automorphisms, half-plane translations, punctured-disc maps of prescribed
degree, compositions, and the non-holomorphic real-part contraction."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, PreconditionError, UsageError, ValidationError
from .mobius import Mobius, apply, build_disc_automorphism
from .models import Model, ModelPoint


class HoloMap:
    """Base class for the map families. Concrete variants implement raw
    complex evaluation (``value_at``), a closed-form derivative, a JSON
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
        return evaluate(self, p)


# A self-map is evaluated as a Moebius map is applied: one image check.
evaluate = apply


@dataclass(frozen=True)
class Identity(HoloMap):
    model: Model = Model.DISC

    def value_at(self, z: complex) -> complex:
        return z

    def _derivative(self, z: complex) -> complex:
        return 1.0

    @property
    def self_covering(self) -> bool:
        return self.model is Model.PUNCTURED_DISC

    def declared_degree(self) -> Optional[int]:
        return 1 if self.self_covering else None

    def lift(self, zeta: complex) -> complex:
        return zeta

    def to_dict(self) -> dict:
        return {"variant": "identity", "model": self.model.value}


@dataclass(frozen=True)
class MobiusAut(HoloMap):
    """A model-preserving fractional-linear map used as a self-map."""

    mobius: Mobius

    @property
    def model(self) -> Model:
        return self.mobius.model

    def value_at(self, z: complex) -> complex:
        return self.mobius.apply_value(z)

    def _derivative(self, z: complex) -> complex:
        den = self.mobius.c * z + self.mobius.d
        return 1.0 / (den * den)  # determinant is 1 after normalization

    def to_dict(self) -> dict:
        return {"variant": "mobius_automorphism", **self.mobius.to_dict()}


@dataclass(frozen=True)
class BlaschkeProduct(HoloMap):
    """f(w) = e^{i rotation} * prod (w - z_k)/(1 - conj(z_k) w), zeros in the disc."""

    rotation: float
    zeros: tuple = ()
    model: Model = field(default=Model.DISC, init=False)

    def __post_init__(self) -> None:
        zeros = tuple(complex(z) for z in self.zeros)
        if not zeros:
            raise ValidationError("a Blaschke product needs at least one zero")
        for z in zeros:
            if abs(z) >= 1.0 - 1e-12:
                raise ValidationError(f"zero {z!r} is not interior to the disc")
        object.__setattr__(self, "zeros", zeros)

    def value_at(self, z: complex) -> complex:
        w = cmath.exp(1j * self.rotation)
        for z0 in self.zeros:
            w *= (z - z0) / (1.0 - z0.conjugate() * z)
        return w

    def _derivative(self, z: complex) -> complex:
        factors = [(z - z0) / (1.0 - z0.conjugate() * z) for z0 in self.zeros]
        slopes = [(1.0 - abs(z0) ** 2) / (1.0 - z0.conjugate() * z) ** 2 for z0 in self.zeros]
        total = 0.0 + 0.0j
        for j, dj in enumerate(slopes):
            part = dj
            for k, fk in enumerate(factors):
                if k != j:
                    part *= fk
            total += part
        return cmath.exp(1j * self.rotation) * total

    def to_dict(self) -> dict:
        return {"variant": "blaschke", "rotation": self.rotation,
                "zeros": [[z.real, z.imag] for z in self.zeros]}


@dataclass(frozen=True)
class HalfPlaneTranslate(HoloMap):
    """w -> w + offset on the right half-plane, offset >= 0."""

    offset: float
    model: Model = field(default=Model.RIGHT_HALF_PLANE, init=False)

    def __post_init__(self) -> None:
        if self.offset < 0.0:
            raise ValidationError("translation offset must be nonnegative")

    def value_at(self, z: complex) -> complex:
        return z + self.offset

    def _derivative(self, z: complex) -> complex:
        return 1.0

    def to_dict(self) -> dict:
        return {"variant": "halfplane_translate", "offset": self.offset}


@dataclass(frozen=True)
class PuncturedPower(HoloMap):
    """z -> e^{i rotation} z^power, a self-covering of the punctured disc."""

    rotation: float
    power: int
    model: Model = field(default=Model.PUNCTURED_DISC, init=False)
    self_covering = True

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValidationError("power must be a positive integer")

    def value_at(self, z: complex) -> complex:
        return cmath.exp(1j * self.rotation) * z ** self.power

    def _derivative(self, z: complex) -> complex:
        return cmath.exp(1j * self.rotation) * self.power * z ** (self.power - 1)

    def log_derivative(self, z: complex) -> complex:
        return self.power / z

    def declared_degree(self) -> Optional[int]:
        return self.power

    def lift(self, zeta: complex) -> complex:
        # e^{i t} z^m lifts to m*zeta + t/(2 pi)
        return self.power * zeta + self.rotation / math.tau

    def to_dict(self) -> dict:
        return {"variant": "punctured_power", "rotation": self.rotation, "power": self.power}


@dataclass(frozen=True)
class PuncturedExp(HoloMap):
    """z -> e^{i rotation} z^power e^{decay (z - 1)} with real decay >= 0.

    Zero-free on the punctured disc and a self-map there, since
    |f(z)| = |z|^power * e^{decay (Re z - 1)} < 1; the degree is ``power``.
    """

    rotation: float
    power: int
    decay: float
    model: Model = field(default=Model.PUNCTURED_DISC, init=False)

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValidationError("power must be a positive integer")
        if self.decay < 0.0:
            raise ValidationError("decay must be nonnegative")

    def value_at(self, z: complex) -> complex:
        return cmath.exp(1j * self.rotation) * z ** self.power * cmath.exp(self.decay * (z - 1.0))

    def _derivative(self, z: complex) -> complex:
        return self.value_at(z) * (self.power / z + self.decay)

    def log_derivative(self, z: complex) -> complex:
        return self.power / z + self.decay

    def declared_degree(self) -> Optional[int]:
        return self.power

    def lift(self, zeta: complex) -> complex:
        # log f / (2 pi i) at z = exp(2 pi i zeta): the factor e^{c (z - 1)}
        # adds c (z - 1) / (2 pi i), which is periodic in zeta
        z = cmath.exp(1j * math.tau * zeta)
        return (self.power * zeta + self.rotation / math.tau
                + self.decay * (z - 1.0) / (1j * math.tau))

    def to_dict(self) -> dict:
        return {"variant": "punctured_exp", "rotation": self.rotation,
                "power": self.power, "decay": self.decay}


@dataclass(frozen=True)
class Composition(HoloMap):
    """Pipeline composition: maps[0] is applied first."""

    maps: tuple

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        if not maps:
            raise ValidationError("composition needs at least one map")
        for g in maps:
            if g.model is not maps[0].model:
                raise ValidationError("composition mixes models")
        object.__setattr__(self, "maps", maps)

    @property
    def model(self) -> Model:
        return self.maps[0].model

    def value_at(self, z: complex) -> complex:
        for g in self.maps:
            z = g.value_at(z)
        return z

    def _derivative(self, z: complex) -> complex:
        drv = 1.0 + 0.0j
        for g in self.maps:
            drv *= g._derivative(z)
            z = g.value_at(z)
        return drv

    def log_derivative(self, z: complex) -> complex:
        # chain rule: ld(g_k o ... o g_1)(z) = ld(g_k)(w) * (g_{k-1} o ... o g_1)'(z)
        drv = 1.0 + 0.0j
        for g in self.maps[:-1]:
            drv *= g._derivative(z)
            z = g.value_at(z)
        return self.maps[-1].log_derivative(z) * drv

    def declared_degree(self) -> Optional[int]:
        degrees = [g.declared_degree() for g in self.maps]
        return None if None in degrees else math.prod(degrees)

    def lift(self, zeta: complex) -> complex:
        for g in self.maps:
            zeta = g.lift(zeta)
        return zeta

    def to_dict(self) -> dict:
        return {"variant": "composition", "maps": [g.to_dict() for g in self.maps]}


@dataclass(frozen=True)
class RealPartMap(HoloMap):
    """w -> Re(w) on the disc: contracts the hyperbolic metric but is not
    holomorphic, so the distortion bounds need not hold for it."""

    model: Model = field(default=Model.DISC, init=False)
    contraction_only = True

    def value_at(self, z: complex) -> complex:
        return complex(z.real, 0.0)

    def _derivative(self, z: complex) -> complex:
        raise DomainError("the real-part map is not holomorphic")

    def to_dict(self) -> dict:
        return {"variant": "real_part"}


@dataclass(frozen=True)
class SchwarzQuotient(HoloMap):
    """g(w) = base(w)/w with the removable singularity filled by base'(0).

    The image lies in the closed disc (|g| <= 1), so g is consumed through
    ``value_at`` rather than as a strict self-map.
    """

    base: HoloMap
    model: Model = field(default=Model.DISC, init=False)

    def value_at(self, z: complex) -> complex:
        if abs(z) < 1e-12:
            return self.base._derivative(0.0 + 0.0j)
        return self.base.value_at(z) / z

    def to_dict(self) -> dict:
        return {"variant": "schwarz_quotient", "base": self.base.to_dict()}


def schwarz_quotient(f: HoloMap) -> HoloMap:
    """Divide out the fixed point at the origin: g(w) = f(w)/w, g(0) = f'(0).

    Requires a holomorphic self-map of the disc fixing 0; the result maps the
    disc into its closure.
    """
    if f.model is not Model.DISC:
        raise PreconditionError("quotient is defined for disc self-maps")
    if f.contraction_only:
        raise PreconditionError("map must be holomorphic")
    if abs(f.value_at(0.0 + 0.0j)) > 1e-12:
        raise PreconditionError("map must fix the origin")
    return SchwarzQuotient(f)


def declared_degree(f: HoloMap) -> Optional[int]:
    """Analytic degree of a punctured-disc map; None for other models."""
    return f.declared_degree()


def reference_degree(f: HoloMap, h: HoloMap) -> int:
    """The common degree of f and a reference self-covering h, both of
    positive degree: the precondition of the punctured-disc bound and of
    normalized lifts."""
    mf = f.declared_degree()
    mh = h.declared_degree()
    if mf is None or mh is None or mf < 1 or mh < 1:
        raise PreconditionError("both maps need positive degree")
    if mf != mh:
        raise PreconditionError(f"degree mismatch: {mf} vs {mh}")
    if not h.self_covering:
        raise PreconditionError("reference map must be a self-covering (power or identity)")
    return mf


def _uniform(rng: np.random.Generator, lo: float = 0.0, hi: float = 1.0) -> float:
    """rng.uniform(lo, hi), bit for bit, by numpy's own formula; a third of
    the cost of the scalar call."""
    return lo + (hi - lo) * rng.random()


def _disc_uniform(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(_uniform(rng))
    phi = _uniform(rng, 0.0, math.tau)
    return r * cmath.exp(1j * phi)


def sample_map(family: str, seed, params: Optional[dict] = None) -> HoloMap:
    """Draw one map from a named family, deterministically in the seed.
    ``seed`` is any ``np.random.default_rng`` seed.

    Families: ``blaschke`` (max_degree), ``disc_automorphism``,
    ``punctured_exp`` (max_power, max_decay), ``near_identity`` (eps).
    Blaschke zeros and automorphism centers stay within Euclidean radius
    0.95 to keep samples away from boundary degeneracy.
    """
    params = params or {}
    rng = np.random.default_rng(seed)
    if family == "blaschke":
        max_degree = int(params.get("max_degree", 5))
        if max_degree < 1:
            raise UsageError("max_degree must be >= 1")
        degree = int(rng.integers(1, max_degree + 1))
        zeros = tuple(_disc_uniform(rng, 0.95) for _ in range(degree))
        return BlaschkeProduct(_uniform(rng, 0.0, math.tau), zeros)
    if family == "disc_automorphism":
        center = ModelPoint.disc(_disc_uniform(rng, 0.95))
        return MobiusAut(build_disc_automorphism(center, _uniform(rng, 0.0, math.tau)))
    if family == "punctured_exp":
        max_power = int(params.get("max_power", 4))
        max_decay = float(params.get("max_decay", 2.0))
        if max_power < 1 or max_decay < 0.0:
            raise UsageError("need max_power >= 1 and max_decay >= 0")
        power = int(rng.integers(1, max_power + 1))
        return PuncturedExp(_uniform(rng, 0.0, math.tau), power, _uniform(rng, 0.0, max_decay))
    if family == "near_identity":
        eps = float(params.get("eps", 1e-3))
        if eps <= 0.0:
            raise UsageError("eps must be positive")
        # displacement at the origin is 2*atanh(|center|) < eps/4
        r = math.tanh(eps / 8.0) * math.sqrt(_uniform(rng))
        center = ModelPoint.disc(r * cmath.exp(1j * _uniform(rng, 0.0, math.tau)))
        theta = _uniform(rng, -eps / 4.0, eps / 4.0)
        return MobiusAut(build_disc_automorphism(center, theta))
    raise UsageError(f"unknown family {family!r}")


def map_from_dict(d: dict) -> HoloMap:
    """Rebuild a map from its JSON form (inverse of ``to_dict``)."""
    variant = d.get("variant")
    if variant == "identity":
        return Identity(Model(d["model"]))
    if variant == "mobius_automorphism":
        return MobiusAut(Mobius.from_dict(d))
    if variant == "blaschke":
        return BlaschkeProduct(float(d["rotation"]),
                               tuple(complex(re, im) for re, im in d["zeros"]))
    if variant == "halfplane_translate":
        return HalfPlaneTranslate(float(d["offset"]))
    if variant == "punctured_power":
        return PuncturedPower(float(d["rotation"]), int(d["power"]))
    if variant == "punctured_exp":
        return PuncturedExp(float(d["rotation"]), int(d["power"]), float(d["decay"]))
    if variant == "composition":
        return Composition(tuple(map_from_dict(g) for g in d["maps"]))
    if variant == "real_part":
        return RealPartMap()
    if variant == "schwarz_quotient":
        return SchwarzQuotient(map_from_dict(d["base"]))
    raise UsageError(f"unknown map variant {variant!r}")
