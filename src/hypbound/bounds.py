"""Bound constants and margin checks for the distortion inequalities:
the two-point bound and its sharpened form, the reference-automorphism
variant, the fixed-point bound, the punctured-disc bound and the axis
displacement bound. Each check returns one ``BoundReport``.

Each constant is written once, over the ops it is given, ``math`` here and numpy
in ``batch``: a patch of it reaches both engines, and each engine keeps its bits."""

from __future__ import annotations

import math
from typing import Optional

from .covering import punctured_dist
from .errors import DomainError, PreconditionError
from .holomaps import HoloMap, evaluate, reference_degree
from .mobius import Mobius, apply, classify, dist_to_axis, is_isometry
from .models import ModelPoint, dist
from .report import DEFAULT_TOLERANCE, BoundReport, witnesses

MIN_SEPARATION = 1e-9


def two_point_constant(ops, dza, dab, dbz, sharp=False):
    """exp(d(z,a) + d(a,b) + d(b,z)) over d(a,b), or over 2 sinh(d(a,b)/2) if sharp."""
    top = ops.exp(dza + dab + dbz)
    return top / (2.0 * ops.sinh(0.5 * dab) if sharp else dab)


def fixed_point_constant(ops, daz, dzb, dab):
    """exp(d(a,z) + d(z,b)) / (4 sinh(d(a,b)/2))."""
    return ops.exp(daz + dzb) / (4.0 * ops.sinh(0.5 * dab))


def punctured_density(ops, r):
    """The density -1/(r log r) of the punctured disc at modulus r; always >= e."""
    return -1.0 / (r * ops.log(r))


def punctured_constant(ops, r, dza):
    """L^3 and L = 8 * density(a) * exp(d*(z, a)), for |a| = r."""
    growth = 8.0 * punctured_density(ops, r) * ops.exp(dza)
    return growth ** 3, growth


def _separation(a: ModelPoint, b: ModelPoint) -> float:
    """d(a, b), refused below MIN_SEPARATION."""
    dab = dist(a, b)
    if dab < MIN_SEPARATION:
        raise PreconditionError("base points must be separated")
    return dab


def constant_two_point(z: ModelPoint, a: ModelPoint, b: ModelPoint,
                       sharp: bool = False) -> float:
    """The function-independent constant of the two-point bound,
    ``two_point_constant``; the sharp one never exceeds the plain one."""
    dab = _separation(a, b)
    return two_point_constant(math, dist(z, a), dab, dist(b, z), sharp)


def constant_keu(a: ModelPoint, b: ModelPoint) -> float:
    """The two-point constant with the z-dependence split off: k such that
    the full constant is at most k * exp(2 d(z,a)), namely its value at z = a,
    exp(2 d(a,b))/d(a,b)."""
    return constant_two_point(a, a, b)


def check_two_point(f: HoloMap, a: ModelPoint, b: ModelPoint, z: ModelPoint,
                    h: Optional[Mobius] = None, sharp: bool = False,
                    tolerance: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Check d(f(z), h(z)) <= K * (d(f(a), h(a)) + d(f(b), h(b))) with h the
    identity when absent. Holomorphic maps never violate it; the real-part
    contraction is accepted so the designed counterexample runs through the
    same path."""
    constant = constant_two_point(z, a, b, sharp=sharp)
    inputs = {"f": f, "a": a, "b": b, "z": z}
    if h is None:
        hz, ha, hb = z, a, b
        tag = "two_point_sharp" if sharp else "two_point"
    else:
        if h.model is not a.model:
            raise PreconditionError("reference automorphism must act on the points' model")
        if not is_isometry(h):
            raise PreconditionError("reference map must be a model automorphism")
        hz, ha, hb = apply(h, z), apply(h, a), apply(h, b)
        tag = "xjb"
        inputs["h"] = h
    lhs = dist(evaluate(f, z), hz)
    rhs = constant * (dist(evaluate(f, a), ha) + dist(evaluate(f, b), hb))
    return BoundReport(tag, lhs, rhs, constant, tolerance, witnesses(**inputs))


def check_fixed_point(f: HoloMap, a: ModelPoint, b: ModelPoint, z: ModelPoint,
                      tolerance: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Check d(f(z), z) <= M * d(f(a), a) for a map fixing b, with
    M = exp(d(a,z) + d(z,b)) / (4 sinh(d(a,b)/2)); M is always above 1."""
    dab = _separation(a, b)
    drift = dist(evaluate(f, b), b)
    if drift > 1e-10:
        raise PreconditionError(f"map moves the fixed point by {drift:.3e}")
    constant = fixed_point_constant(math, dist(a, z), dist(z, b), dab)
    lhs = dist(evaluate(f, z), z)
    rhs = constant * dist(evaluate(f, a), a)
    return BoundReport("fixed_point", lhs, rhs, constant, tolerance,
                       witnesses(f=f, a=a, b=b, z=z))


def check_punctured(f: HoloMap, h: HoloMap, a: ModelPoint, z: ModelPoint,
                    tolerance: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Check d*(f(z), h(z)) <= L^3 * d*(f(a), h(a)) on the punctured disc, with L
    from ``punctured_constant``, for a self-covering reference h of f's positive degree."""
    reference_degree(f, h)
    constant, growth = punctured_constant(math, abs(a.value), punctured_dist(z, a))
    lhs = punctured_dist(evaluate(f, z), evaluate(h, z))
    rhs = constant * punctured_dist(evaluate(f, a), evaluate(h, a))
    return BoundReport("punctured", lhs, rhs, constant, tolerance,
                       witnesses(f=f, h=h, a=a, z=z, L=growth))


def qlo_bound(w: ModelPoint, c: ModelPoint, h: Mobius,
              tolerance: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Displacement bound for a hyperbolic automorphism h with c on its axis:

        dist(w, h(w)) <= exp(dist(w, c)) * dist(c, h(c)).

    The report's witnesses carry both sides of the exact identity
    sinh(dist(w, hw)/2) = cosh(dist(w, axis)) * sinh(dist(c, hc)/2).
    """
    cls = classify(h)
    if cls.kind != "hyperbolic":
        raise DomainError(f"map is {cls.kind}, not hyperbolic")
    if w.model is not h.model or c.model is not h.model:
        raise DomainError("points must live in the map's model")
    off_axis = dist_to_axis(c, cls.axis, h.model)
    if off_axis > 1e-9:
        raise PreconditionError(f"base point is {off_axis:.3e} away from the axis")
    lhs = dist(w, apply(h, w))
    base = dist(c, apply(h, c))
    growth = math.exp(dist(w, c))
    w_axis = dist_to_axis(w, cls.axis, h.model)
    return BoundReport("qlo", lhs, growth * base, growth, tolerance, witnesses(
        w=w, c=c, h=h, axis_distance=w_axis, identity_lhs=math.sinh(0.5 * lhs),
        identity_rhs=math.cosh(w_axis) * math.sinh(0.5 * base)))
