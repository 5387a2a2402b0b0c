import cmath
import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbound import (
    BlaschkeProduct,
    CampaignConfig,
    CampaignReport,
    Composition,
    DegreeResult,
    DomainError,
    HalfDistancePair,
    HalfPlaneTranslate,
    Mobius,
    Model,
    ModelPoint,
    NumericalError,
    PuncturedExp,
    PuncturedPower,
    RealPartMap,
    UnsupportedError,
    ValidationError,
    build_disc_automorphism,
    convert,
    density_punctured,
    dist,
    dist_oracle,
    half_sinh_cosh,
    lift_map,
)

from hypbound.models import disc_radius_limit

from conftest import disc_points, random_model_point, upper_points

LN2 = math.log(2.0)
LN3 = math.log(3.0)

_POWER = "model=<Model.PUNCTURED_DISC: 'punctured_disc'>"
_CONFIG = ("CampaignConfig(theorem='two_point', family='mix', samples=10, seed=1, "
           "family_params={'max_degree': 3}, min_sep=0.1, max_radius=6.0, tolerance=1e-09)")


def _config(seed=1):
    return CampaignConfig("two_point", "mix", 10, seed, family_params={"max_degree": 3})


# class, or a class and a second case of it -> (a factory of an instance, one
# of an unequal object, and the instance's repr and the class's __match_args__
# as the frozen dataclass the class used to be gave them)
FROZEN = {
    "ModelPoint": (
        lambda: ModelPoint.disc(0.25 - 0.1j), lambda: ModelPoint.punctured(0.25 - 0.1j),
        "ModelPoint(value=(0.25-0.1j), model=<Model.DISC: 'disc'>)", ("value", "model")),
    "HalfDistancePair": (
        lambda: HalfDistancePair(0.75, 1.25), lambda: HalfDistancePair(0.0, 1.0),
        "HalfDistancePair(s=0.75, c=1.25)", ("s", "c")),
    "Mobius": (
        # a second normalization would round these entries: a copy keeps them
        lambda: build_disc_automorphism(ModelPoint.disc(0.5), 2.0),
        lambda: build_disc_automorphism(ModelPoint.disc(0.5), 1.0),
        "Mobius(a=(0.6238873634734919+0.971646999188197j), "
        "b=(-0.31194368173674597-0.4858234995940985j), "
        "c=(-0.3119436817367459+0.4858234995940985j), "
        "d=(0.6238873634734918-0.971646999188197j), model=<Model.DISC: 'disc'>)",
        ("a", "b", "c", "d", "model")),
    "Mobius, punctured": (
        # a rotation: the Moebius automorphisms of the punctured disc are these
        lambda: Mobius(cmath.exp(0.5j), 0.0, 0.0, 1.0, Model.PUNCTURED_DISC),
        lambda: Mobius.identity(Model.PUNCTURED_DISC),
        "Mobius(a=(0.9689124217106447+0.2474039592545229j), b=0j, c=0j, "
        "d=(0.9689124217106447-0.24740395925452285j), "
        "model=<Model.PUNCTURED_DISC: 'punctured_disc'>)",
        ("a", "b", "c", "d", "model")),
    "BlaschkeProduct": (
        lambda: BlaschkeProduct(0.5, (0.25j, -0.5)), lambda: BlaschkeProduct(0.5, (0.25j,)),
        "BlaschkeProduct(rotation=0.5, zeros=(0.25j, (-0.5+0j)), model=<Model.DISC: 'disc'>)",
        ("rotation", "zeros")),
    "HalfPlaneTranslate": (
        lambda: HalfPlaneTranslate(0.25), lambda: HalfPlaneTranslate(0.5),
        "HalfPlaneTranslate(offset=0.25, model=<Model.RIGHT_HALF_PLANE: 'right_half_plane'>)",
        ("offset",)),
    "PuncturedExp": (
        lambda: PuncturedExp(0.5, 2, 1.5), lambda: PuncturedExp(0.5, 2, 0.0),
        f"PuncturedExp(rotation=0.5, power=2, decay=1.5, {_POWER})",
        ("rotation", "power", "decay")),
    "PuncturedPower": (
        lambda: PuncturedPower(0.0, 1), lambda: PuncturedPower(0.0, 2),
        f"PuncturedPower(rotation=0.0, power=1, decay=0.0, {_POWER})", ("rotation", "power")),
    "Composition": (
        lambda: Composition((PuncturedPower(0.0, 2), PuncturedExp(0.5, 1, 0.25))),
        lambda: Composition((PuncturedExp(0.5, 1, 0.25), PuncturedPower(0.0, 2))),
        f"Composition(maps=(PuncturedPower(rotation=0.0, power=2, decay=0.0, {_POWER}), "
        f"PuncturedExp(rotation=0.5, power=1, decay=0.25, {_POWER})))", ("maps",)),
    "RealPartMap": (
        RealPartMap, lambda: HalfPlaneTranslate(0.0),
        "RealPartMap(model=<Model.DISC: 'disc'>)", ()),
    "DegreeResult": (
        lambda: DegreeResult(3, 1e-10, 128), lambda: DegreeResult(3, 1e-10, 256),
        "DegreeResult(value=3, residual=1e-10, panels=128)", ("value", "residual", "panels")),
    "LiftedMap": (
        lambda: lift_map(PuncturedPower(0.5, 2), ModelPoint.upper(0.25 + 1j)),
        lambda: lift_map(PuncturedPower(0.5, 2), ModelPoint.upper(0.25 + 1j), 1),
        f"LiftedMap(base_map=PuncturedPower(rotation=0.5, power=2, decay=0.0, {_POWER}), "
        "anchor=ModelPoint(value=(0.25+1j), model=<Model.UPPER_HALF_PLANE: 'upper_half_plane'>), "
        "anchor_value=(-0.4204225284540524+2j), deck_offset=0, degree=2)",
        ("base_map", "anchor", "anchor_value", "deck_offset", "degree")),
    "CampaignConfig": (
        _config, lambda: _config(seed=2), _CONFIG,
        ("theorem", "family", "samples", "seed", "family_params", "min_sep", "max_radius",
         "tolerance")),
    "CampaignReport": (
        lambda: CampaignReport(_config(), [], {"min": 0.5}, 0.25),
        lambda: CampaignReport(_config(), [], {"min": 0.5}, 0.5),
        f"CampaignReport(config={_CONFIG}, violations=[], margin_stats={{'min': 0.5}}, "
        "wall_time_s=0.25, extras=None)",
        ("config", "violations", "margin_stats", "wall_time_s", "extras")),
}


class TestModelPoint:
    def test_valid_points(self):
        ModelPoint.disc(0.5 + 0.3j)
        ModelPoint.upper(2j)
        ModelPoint.right(1.0)
        ModelPoint.punctured(0.1j)

    @pytest.mark.parametrize("value", [1.0, 1.0 + 0j, 2.0, 1 - 1e-15])
    def test_disc_rejects_boundary(self, value):
        with pytest.raises(ValidationError):
            ModelPoint.disc(value)

    def test_margin_rejections(self):
        with pytest.raises(ValidationError):
            ModelPoint.upper(1.0 + 1e-15j)
        with pytest.raises(ValidationError):
            ModelPoint.right(1e-15 + 1j)
        with pytest.raises(ValidationError):
            ModelPoint.punctured(0.0)
        with pytest.raises(ValidationError):
            ModelPoint.punctured(5e-15)
        # just inside the margin is fine, on every edge of every model
        ModelPoint.upper(1.0 + 1e-13j)
        ModelPoint.disc(1.0 - 1e-13)
        ModelPoint.right(1e-13 - 1j)
        ModelPoint.punctured(1e-13j)
        ModelPoint.punctured(-(1.0 - 1e-13))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ModelPoint.disc(complex(math.nan, 0))

    def test_roundtrip_dict(self):
        p = ModelPoint.disc(0.25 - 0.1j)
        assert ModelPoint.from_dict(p.to_dict()) == p

    # the literals below are those of the frozen dataclasses that ModelPoint and
    # the FROZEN classes used to be
    @pytest.mark.parametrize("point, text", [
        (ModelPoint.disc(0.25 - 0.1j), "ModelPoint(value=(0.25-0.1j), model=<Model.DISC: 'disc'>)"),
        (ModelPoint.upper(2j),
         "ModelPoint(value=2j, model=<Model.UPPER_HALF_PLANE: 'upper_half_plane'>)"),
        (ModelPoint.right(1.0),
         "ModelPoint(value=(1+0j), model=<Model.RIGHT_HALF_PLANE: 'right_half_plane'>)"),
        (ModelPoint.punctured(-0.5),
         "ModelPoint(value=(-0.5+0j), model=<Model.PUNCTURED_DISC: 'punctured_disc'>)"),
        *((build(), text) for name, (build, _, text, _) in FROZEN.items() if name != "ModelPoint"),
    ])
    def test_repr(self, point, text):
        assert repr(point) == text

    def test_equality_and_hash(self):
        p = ModelPoint.disc(0.25 - 0.1j)
        assert p == ModelPoint(0.25 - 0.1j, Model.DISC) and not p != ModelPoint.disc(0.25 - 0.1j)
        assert p != ModelPoint.punctured(0.25 - 0.1j) and p != ModelPoint.disc(0.25)
        assert p != (p.value, p.model) and p != 0.25 - 0.1j
        assert hash(p) == hash((0.25 - 0.1j, Model.DISC))
        assert len({p, ModelPoint.disc(0.25 - 0.1j), ModelPoint.punctured(0.25 - 0.1j)}) == 2
        for name, (build, build_other, _, match_args) in FROZEN.items():
            p, same, other = build(), build(), build_other()
            assert p == same and not p != same and p is not same, name
            assert p != other and not p == other, name
            assert p != p._values() and p != None, name  # noqa: E711
            assert type(p).__match_args__ == match_args, name
            if name in ("CampaignConfig", "CampaignReport"):  # a dict field: unhashable
                with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                    hash(p)
                continue
            assert hash(p) == hash(same) == hash(p._values()), name
            assert len({p, same, other}) == 2, name
        # the value is converted to complex, as the dataclass did
        q = ModelPoint("0.5", Model.DISC)
        assert q == ModelPoint.disc(0.5) and type(q.value) is complex
        assert hash(q) == hash((0.5 + 0j, Model.DISC))
        match q:
            case ModelPoint(value, model):
                assert (value, model) == (0.5, Model.DISC)

    def test_immutable(self):
        for build, *_ in FROZEN.values():
            p = build()
            for name in p._fields:
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                    setattr(p, name, 0.1)
                with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                    delattr(p, name)
            with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
                p.other = 0.1
            assert p == build() and repr(p) == repr(build())

    @pytest.mark.parametrize("p", [ModelPoint.disc(0.25 - 0.1j), ModelPoint.upper(3 + 1e-14j),
                                   ModelPoint.punctured(-0.5),
                                   *(build() for name, (build, *_) in FROZEN.items()
                                     if name != "ModelPoint")])
    def test_copies_and_pickles(self, p):
        # each is rebuilt through its constructor: its repr shows each bit kept
        rebuilt = (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)))
        if type(p) is ModelPoint:
            rebuilt += (ModelPoint.from_dict(p.to_dict()),)
        for q in rebuilt:
            assert q == p and type(q) is type(p) and repr(q) == repr(p)
            if type(p) is ModelPoint:
                assert q.model is p.model and q.value == p.value and type(q.value) is complex

    def test_rebuilt_copies_are_validated(self):
        p = ModelPoint.disc(0.25 - 0.1j)
        assert ModelPoint.from_dict(p.to_dict()) == p
        assert type(ModelPoint.from_dict(p.to_dict()).value) is complex
        # a copy runs the constructor's checks again
        reduced = DegreeResult(3, 1e-10, 128).__reduce__()
        assert reduced == (DegreeResult, (3, 1e-10, 128))
        with pytest.raises(NumericalError, match="does not certify"):
            reduced[0](3, 1e-3, 128)
        # a Mobius copy keeps its entries once they are finite and normalized
        rebuild, (cls, a, b, c, d, model) = build_disc_automorphism(
            ModelPoint.disc(0.3j), 0.5).__reduce__()
        assert cls is Mobius and rebuild(cls, a, b, c, d, model).entries == (a, b, c, d)
        with pytest.raises(ValidationError, match="finite"):
            rebuild(cls, math.nan, b, c, d, model)
        for scaled in ((0.0, 0.0, c, d), (2 * a, 2 * b, 2 * c, 2 * d),
                       (a * (1 + 1e-9), b, c, d)):
            with pytest.raises(ValidationError, match="not normalized"):
                rebuild(cls, *scaled, model)

    def test_mobius_subclass_copies_keep_their_class(self):
        class Unit(Mobius):
            __slots__ = ()

        m = Unit(2.0, 1.0, 1.0, 1.0, Model.UPPER_HALF_PLANE)
        for q in (copy.copy(m), copy.deepcopy(m)):
            assert type(q) is Unit and q == m and q.entries == m.entries

    @pytest.mark.parametrize("value, model, message", [
        (complex(math.nan, 0.0), Model.DISC, "non-finite point (nan+0j)"),
        (complex(0.0, math.inf), Model.UPPER_HALF_PLANE, "non-finite point infj"),
        (complex(math.inf, 1.0), Model.UPPER_HALF_PLANE, "non-finite point (inf+1j)"),
        (complex(math.nan, 0.0), "disc", "non-finite point (nan+0j)"),
        (1 - 1e-14, Model.DISC, "(0.99999999999999+0j) is not interior to the disc model"),
        (3 + 0.9e-14j, Model.UPPER_HALF_PLANE,
         "(3+9e-15j) is not interior to the upper_half_plane model"),
        (0.5, "disc", "unknown model 'disc'"),
    ])
    def test_refusals(self, value, model, message):
        with pytest.raises(ValidationError) as info:
            ModelPoint(value, model)
        assert info.type is ValidationError and str(info.value) == message

    def test_margin_is_inclusive(self):
        # an excess of exactly -BOUNDARY_MARGIN is interior
        assert ModelPoint.upper(3 + 1e-14j).value.imag == 1e-14
        assert ModelPoint.right(1e-14 + 2j).value.real == 1e-14


class TestDist:
    def test_right_halfplane_log_quotient(self):
        # points on the positive axis are at distance log(v/u)
        d = dist(ModelPoint.right(1.0), ModelPoint.right(2.0))
        assert abs(d - LN2) <= 1e-12

    def test_coincident_points(self):
        u = ModelPoint.disc(0.3 + 0.4j)
        assert dist(u, u) == 0.0

    def test_disc_radial_value(self):
        # oracle: integrating 2/(1-r^2) along the radius gives log 3
        d = dist(ModelPoint.disc(0.0), ModelPoint.disc(0.5))
        assert abs(d - LN3) <= 1e-12

    def test_model_mismatch(self):
        with pytest.raises(DomainError):
            dist(ModelPoint.disc(0.1), ModelPoint.upper(1j))

    @given(disc_points(), disc_points())
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, u, v):
        a, b = dist(u, v), dist(v, u)
        assert abs(a - b) <= 1e-12 * max(1.0, a)

    @given(disc_points(), disc_points(), disc_points())
    @settings(max_examples=200, deadline=None)
    def test_triangle(self, u, v, w):
        assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-9

    @given(upper_points(), upper_points())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_upper(self, u, v):
        a, b = dist(u, v), dist(v, u)
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def _decimal_disc_dist(u: complex, v: complex) -> float:
    """acosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2))) in 60-digit decimal
    arithmetic, from the exact values of the two doubles."""
    with localcontext() as ctx:
        ctx.prec = 60
        ux, uy, vx, vy = (Decimal(x) for x in (u.real, u.imag, v.real, v.imag))
        x = 1 + 2 * ((ux - vx) ** 2 + (uy - vy) ** 2) / (
            (1 - ux * ux - uy * uy) * (1 - vx * vx - vy * vy))
        return float((x + (x * x - 1).sqrt()).ln())


class TestDiscRadiusLimit:
    @staticmethod
    def worst_error(radius: float) -> float:
        # the error peaks for nearly opposite points at the edge, R/2 out
        r = math.tanh(radius / 4.0)
        worst = 0.0
        for i in range(200):
            t = math.tau * i / 200
            for dt in (0.0, 0.01, 0.1, 0.5, 2.0):
                u, v = r * cmath.exp(1j * t), r * cmath.exp(1j * (t + math.pi + dt))
                d = dist(ModelPoint.disc(u), ModelPoint.disc(v))
                worst = max(worst, abs(d - _decimal_disc_dist(u, v)))
        return worst

    def test_default_tolerance_holds_at_the_limit(self):
        tolerance = 1e-9
        limit = disc_radius_limit(tolerance)
        assert 6.0 < limit < 40.0
        assert self.worst_error(limit) <= tolerance
        # and the limit is not loose: two units further out the error is above it
        assert self.worst_error(limit + 2.0) > tolerance

    def test_oracle_agrees_with_closed_form(self):
        assert abs(_decimal_disc_dist(0.0, 0.5) - LN3) <= 1e-15


class TestHalfSinhCosh:
    def test_half_origin(self):
        pair = half_sinh_cosh(ModelPoint.disc(0.5), ModelPoint.disc(0.0))
        assert abs(pair.s - 0.5 / math.sqrt(0.75)) <= 1e-12
        assert abs(pair.c - 1.0 / math.sqrt(0.75)) <= 1e-12

    def test_coincident(self):
        pair = half_sinh_cosh(ModelPoint.disc(0.3j), ModelPoint.disc(0.3j))
        assert pair.s == 0.0 and abs(pair.c - 1.0) <= 1e-12

    def test_antipodal_reals(self):
        pair = half_sinh_cosh(ModelPoint.disc(0.5), ModelPoint.disc(-0.5))
        assert abs(pair.s - 4.0 / 3.0) <= 1e-12
        assert abs(pair.c - 5.0 / 3.0) <= 1e-12

    def test_rejects_other_models(self):
        with pytest.raises(ValidationError):
            half_sinh_cosh(ModelPoint.upper(1j), ModelPoint.upper(2j))

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValidationError):
            HalfDistancePair(1.0, 1.0)

    @given(disc_points(), disc_points())
    @settings(max_examples=200, deadline=None)
    def test_matches_distance(self, u, v):
        pair = half_sinh_cosh(u, v)
        d = dist(u, v)
        assert abs(pair.s - math.sinh(0.5 * d)) <= 1e-10 * max(1.0, pair.s)
        assert abs(pair.c * pair.c - pair.s * pair.s - 1.0) <= 1e-12 * max(1.0, pair.c ** 2)

    @given(disc_points())
    @settings(max_examples=200, deadline=None)
    def test_origin_special_cases(self, u):
        # s(u,0) = |u|/sqrt(1-|u|^2), c(u,0) = 1/sqrt(1-|u|^2)
        pair = half_sinh_cosh(u, ModelPoint.disc(0.0))
        r2 = abs(u.value) ** 2
        assert abs(pair.s - abs(u.value) / math.sqrt(1.0 - r2)) <= 1e-12 * max(1.0, pair.s)
        assert abs(pair.c - 1.0 / math.sqrt(1.0 - r2)) <= 1e-12 * max(1.0, pair.c)

    @given(disc_points(), disc_points())
    @settings(max_examples=300, deadline=None)
    def test_euclidean_gap_identity(self, u, v):
        # |u - v| = s(u,v) / (c(u,0) c(v,0))
        s_uv = half_sinh_cosh(u, v).s
        c_u0 = half_sinh_cosh(u, ModelPoint.disc(0.0)).c
        c_v0 = half_sinh_cosh(v, ModelPoint.disc(0.0)).c
        lhs = abs(u.value - v.value)
        rhs = s_uv / (c_u0 * c_v0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    @given(disc_points(), disc_points())
    @settings(max_examples=300, deadline=None)
    def test_relative_gap_identity(self, u, v):
        # |u - v| / |u| = s(u,v) / (s(u,0) c(v,0)) for u away from 0
        if abs(u.value) < 1e-3:
            return
        s_uv = half_sinh_cosh(u, v).s
        s_u0 = half_sinh_cosh(u, ModelPoint.disc(0.0)).s
        c_v0 = half_sinh_cosh(v, ModelPoint.disc(0.0)).c
        lhs = abs(u.value - v.value) / abs(u.value)
        rhs = s_uv / (s_u0 * c_v0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


class TestDensity:
    def test_minimum_at_inverse_e(self):
        lam = density_punctured(ModelPoint.punctured(1.0 / math.e))
        assert abs(lam - math.e) <= 1e-12

    def test_deep_point(self):
        lam = density_punctured(ModelPoint.punctured(math.exp(-2 * math.pi)))
        assert abs(lam - math.exp(2 * math.pi) / (2 * math.pi)) <= 1e-10

    def test_near_boundary(self):
        lam = density_punctured(ModelPoint.punctured(0.9))
        assert abs(lam - 10.545801756699893) <= 1e-9
        assert lam >= math.e

    def test_needs_punctured_model(self):
        with pytest.raises(ValidationError):
            density_punctured(ModelPoint.disc(0.5))


class TestConvert:
    def test_center_to_center(self):
        assert convert(ModelPoint.upper(1j), Model.DISC).value == 0.0

    def test_upper_to_disc_value(self):
        w = convert(ModelPoint.upper(2j), Model.DISC).value
        assert abs(w - 1.0 / 3.0) <= 1e-15
        d_upper = dist(ModelPoint.upper(1j), ModelPoint.upper(2j))
        d_disc = dist(ModelPoint.disc(0.0), ModelPoint.disc(w))
        assert abs(d_upper - LN2) <= 1e-12
        assert abs(d_disc - LN2) <= 1e-12

    def test_right_to_upper_rotation(self):
        assert convert(ModelPoint.right(1.0), Model.UPPER_HALF_PLANE).value == 1j

    def test_punctured_unsupported(self):
        with pytest.raises(UnsupportedError):
            convert(ModelPoint.disc(0.5), Model.PUNCTURED_DISC)
        with pytest.raises(UnsupportedError):
            convert(ModelPoint.punctured(0.5), Model.DISC)

    def test_same_model_is_identity(self):
        p = ModelPoint.disc(0.5j)
        assert convert(p, Model.DISC) is p

    @given(disc_points(0.9), disc_points(0.9),
           st.sampled_from([Model.UPPER_HALF_PLANE, Model.RIGHT_HALF_PLANE]))
    @settings(max_examples=200, deadline=None)
    def test_isometry(self, u, v, target):
        d0 = dist(u, v)
        d1 = dist(convert(u, target), convert(v, target))
        assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)

    @given(upper_points())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, p):
        back = convert(convert(p, Model.DISC), Model.UPPER_HALF_PLANE)
        assert abs(back.value - p.value) <= 1e-10 * max(1.0, abs(p.value))


class TestDistOracle:
    def test_disc_radial(self):
        d = dist_oracle(ModelPoint.disc(0.0), ModelPoint.disc(0.5))
        assert abs(d - LN3) <= 1e-6

    def test_upper_axial(self):
        d = dist_oracle(ModelPoint.upper(1j), ModelPoint.upper(2j))
        assert abs(d - LN2) <= 1e-6

    def test_coincident(self):
        p = ModelPoint.right(2.0 + 1j)
        assert dist_oracle(p, p) == 0.0

    def test_punctured_rejected(self):
        p = ModelPoint.punctured(0.5)
        with pytest.raises(DomainError):
            dist_oracle(p, p)

    @pytest.mark.parametrize("model", [Model.DISC, Model.UPPER_HALF_PLANE,
                                       Model.RIGHT_HALF_PLANE])
    def test_agrees_with_dist(self, rng, model):
        for _ in range(60):
            u = random_model_point(rng, model, radius=2.5)
            v = random_model_point(rng, model, radius=2.5)
            d = dist(u, v)
            if d < 1e-3:
                continue
            assert abs(dist_oracle(u, v) - d) <= 1e-6 * d
