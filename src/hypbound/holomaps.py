"""Self-map families of the hyperbolic models: Blaschke products, disc
automorphisms (``Mobius``), half-plane translations, punctured-disc maps of
prescribed degree, compositions, and the non-holomorphic real-part contraction."""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .config import sampler_param
from .errors import DomainError, PreconditionError, UsageError, ValidationError
from .mobius import HoloMap, Mobius, apply, build_disc_automorphism
from .models import _PUNCTURED, Frozen, Model, ModelPoint


evaluate = apply  # a self-map is evaluated with one image check


def _finite_rotation(rotation: float) -> None:
    if not math.isfinite(rotation):
        raise ValidationError(f"rotation must be finite, not {rotation!r}")


class BlaschkeProduct(HoloMap, Frozen):
    """f(w) = e^{i rotation} * prod (w - z_k)/(1 - conj(z_k) w), zeros in the disc."""

    __slots__ = __match_args__ = ("rotation", "zeros")
    _fields = (*__slots__, "model")
    model = Model.DISC

    def __init__(self, rotation: float, zeros: tuple = ()) -> None:
        _finite_rotation(rotation)
        zeros = tuple(complex(z) for z in zeros)
        if not zeros:
            raise ValidationError("a Blaschke product needs at least one zero")
        for z in zeros:
            if not abs(z) < 1.0 - 1e-12:
                raise ValidationError(f"zero {z!r} is not interior to the disc")
        self._init(rotation, zeros)

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


class HalfPlaneTranslate(HoloMap, Frozen):
    """w -> w + offset on the right half-plane, offset finite and >= 0."""

    __slots__ = __match_args__ = ("offset",)
    _fields = (*__slots__, "model")
    model = Model.RIGHT_HALF_PLANE

    def __init__(self, offset: float) -> None:
        if not 0.0 <= offset < math.inf:
            raise ValidationError(f"offset must be finite and nonnegative, not {offset!r}")
        self._init(offset)

    def value_at(self, z: complex) -> complex:
        return z + self.offset

    def _derivative(self, z: complex) -> complex:
        return 1.0

    def to_dict(self) -> dict:
        return {"variant": "halfplane_translate", "offset": self.offset}


class PuncturedExp(HoloMap, Frozen):
    """z -> e^{i rotation} z^power e^{decay (z - 1)} with finite real decay >= 0.

    Zero-free on the punctured disc and a self-map there, since
    |f(z)| = |z|^power * e^{decay (Re z - 1)} < 1; the degree is ``power``.
    """

    __slots__ = __match_args__ = ("rotation", "power", "decay")
    _fields = (*__slots__, "model")
    model = Model.PUNCTURED_DISC

    def __init__(self, rotation: float, power: int, decay: float) -> None:
        _finite_rotation(rotation)
        if power < 1:
            raise ValidationError("power must be a positive integer")
        if not 0.0 <= decay < math.inf:
            raise ValidationError(f"decay must be finite and nonnegative, not {decay!r}")
        # _init sets the slots __match_args__ names: PuncturedPower's leave out decay
        self._init(rotation, power, decay)

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


class PuncturedPower(PuncturedExp):
    """z -> e^{i rotation} z^power, ``PuncturedExp`` without decay: a
    self-covering of the punctured disc, and its identity at (0.0, 1)."""

    __slots__ = ()
    __match_args__ = ("rotation", "power")
    decay = 0.0  # shadows the inherited slot, which stays unset
    self_covering = True

    def __init__(self, rotation: float, power: int) -> None:
        super().__init__(rotation, power, 0.0)

    def value_at(self, z: complex) -> complex:
        # not the inherited e^{it} z^m e^{0 (z - 1)}: 2.5x the time, for h of every punctured sample
        return cmath.exp(1j * self.rotation) * z ** self.power

    def _derivative(self, z: complex) -> complex:
        # not the inherited f (m/z + c): that rounds differently, and degree residuals read it
        return cmath.exp(1j * self.rotation) * self.power * z ** (self.power - 1)

    def to_dict(self) -> dict:
        return {"variant": "punctured_power", "rotation": self.rotation, "power": self.power}


class Composition(HoloMap, Frozen):
    """Pipeline composition: maps[0] is applied first."""

    __slots__ = __match_args__ = _fields = ("maps",)

    def __init__(self, maps: tuple) -> None:
        maps = tuple(maps)
        if not maps:
            raise ValidationError("composition needs at least one map")
        for g in maps:
            if g.model is not maps[0].model:
                raise ValidationError("composition mixes models")
        self._init(maps)

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


class RealPartMap(HoloMap, Frozen):
    """w -> Re(w) on the disc: contracts the hyperbolic metric but is not
    holomorphic, so the distortion bounds need not hold for it."""

    __slots__ = ()
    _fields = ("model",)
    model = Model.DISC
    contraction_only = True

    def value_at(self, z: complex) -> complex:
        return complex(z.real, 0.0)

    def _derivative(self, z: complex) -> complex:
        raise DomainError("the real-part map is not holomorphic")

    def to_dict(self) -> dict:
        return {"variant": "real_part"}


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


def _disc_point(radius: float, u: float, v: float) -> complex:
    # area-uniform in the disc of Euclidean ``radius`` for uniform u and v
    return radius * math.sqrt(u) * cmath.exp(1j * (math.tau * v))


def default_rng(seed):
    """``numpy.random.default_rng(seed)``. numpy is imported here, where a
    sample is drawn, so that ``import hypbound`` does not load it."""
    import numpy as np

    return np.random.default_rng(seed)


def sample_map(family: str, seed, params: Optional[dict] = None) -> HoloMap:
    """Draw one map from a named family, deterministically in the seed.
    ``seed`` is any ``default_rng`` seed.

    Families and their parameters, all required but eps: ``blaschke`` (max_degree),
    ``disc_automorphism``, ``punctured_exp`` (max_power, max_decay), ``near_identity`` (eps).
    Blaschke zeros and automorphism centers stay within Euclidean radius
    0.95 to keep samples away from boundary degeneracy.
    """
    params = {key: sampler_param(params, key) for key in params or {}}
    rng = default_rng(seed)
    # each family draws its integers first, then all its uniforms in one call
    if family == "blaschke":
        degree = int(rng.integers(1, params["max_degree"] + 1))
        u = rng.random(2 * degree + 1).tolist()
        zeros = tuple(_disc_point(0.95, u[k], u[k + 1]) for k in range(0, 2 * degree, 2))
        return BlaschkeProduct(math.tau * u[-1], zeros)
    if family == "disc_automorphism":
        u = rng.random(3).tolist()
        return build_disc_automorphism(ModelPoint.disc(_disc_point(0.95, *u[:2])), math.tau * u[2])
    if family == "punctured_exp":
        power = int(rng.integers(1, params["max_power"] + 1))
        u = rng.random(2).tolist()
        return PuncturedExp(math.tau * u[0], power, params["max_decay"] * u[1])
    if family == "near_identity":
        eps = params.get("eps", 1e-3)
        u = rng.random(3).tolist()
        # displacement at the origin is 2*atanh(|center|) < eps/4
        center = ModelPoint.disc(_disc_point(math.tanh(eps / 8.0), u[0], u[1]))
        lo = -eps / 4.0  # the angle is uniform in [-eps/4, eps/4), as lo + (hi - lo) u
        return build_disc_automorphism(center, lo + (eps / 4.0 - lo) * u[2])
    raise UsageError(f"unknown family {family!r}")


def map_from_dict(d: dict) -> HoloMap:
    """Rebuild a map from its JSON form (inverse of ``to_dict``)."""
    variant = d.get("variant")
    if variant == "identity":  # z -> z, as the map that stands for it on its model
        model = Model(d["model"])
        return PuncturedPower(0.0, 1) if model is _PUNCTURED else Mobius.identity(model)
    if variant == "mobius_automorphism":
        return Mobius.from_dict(d)
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
    raise UsageError(f"unknown map variant {variant!r}")
