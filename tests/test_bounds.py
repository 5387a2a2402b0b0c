import cmath
import dataclasses
import math

import pytest

from hypbound import (
    BlaschkeProduct,
    Composition,
    Mobius,
    Model,
    ModelPoint,
    PreconditionError,
    PuncturedExp,
    PuncturedPower,
    RealPartMap,
    build_disc_automorphism,
    check_fixed_point,
    check_punctured,
    check_two_point,
    constant_keu,
    constant_two_point,
    dist,
    evaluate,
    punctured_dist,
    qlo_bound,
    sample_map,
)

from conftest import random_disc_point, random_punctured_point

LN2 = math.log(2.0)


def points_at_distance(d: float):
    """A real pair (0, r) with dist = d."""
    return ModelPoint.disc(0.0), ModelPoint.disc(math.tanh(d / 2.0))


class TestConstants:
    def test_two_point_value_at_base(self):
        a, b = points_at_distance(LN2)
        k = constant_two_point(a, a, b)  # z = a
        assert abs(k - 4.0 / LN2) <= 1e-12 * k

    def test_keu_value(self):
        a, b = points_at_distance(LN2)
        assert abs(constant_keu(a, b) - 4.0 / LN2) <= 1e-12 * (4.0 / LN2)
        a, b = points_at_distance(1.0)
        assert abs(constant_keu(a, b) - math.exp(2.0)) <= 1e-12 * math.exp(2.0)

    def test_constant_exceeds_e(self, rng):
        # exp(x)/x > e for every x > 0
        for _ in range(300):
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 1e-3:
                continue
            assert constant_two_point(z, a, b) > math.e

    def test_sharp_below_plain(self, rng):
        for _ in range(1000):
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 1e-3:
                continue
            sharp = constant_two_point(z, a, b, sharp=True)
            plain = constant_two_point(z, a, b)
            assert sharp <= plain * (1.0 + 1e-12)

    def test_keu_dominates_split_constant(self, rng):
        # K(z,a,b) <= k(a,b) * exp(2 d(z,a)) via the triangle inequality
        for _ in range(500):
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 0.05:
                continue
            lhs = constant_two_point(z, a, b)
            rhs = constant_keu(a, b) * math.exp(2.0 * dist(z, a))
            assert lhs <= rhs + 1e-9

    def test_coincident_base_points_rejected(self):
        a = ModelPoint.disc(0.1)
        with pytest.raises(PreconditionError):
            constant_two_point(a, a, a)
        with pytest.raises(PreconditionError):
            constant_keu(a, a)


class TestCheckTwoPoint:
    def test_identity_map(self):
        r = check_two_point(Mobius.identity(Model.DISC), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
        assert r.lhs == 0.0 and r.rhs == 0.0 and not r.violated
        assert r.theorem == "two_point"

    def test_rotation(self):
        f = build_disc_automorphism(ModelPoint.disc(0.0), 0.1)
        r = check_two_point(f, ModelPoint.disc(0.3), ModelPoint.disc(-0.3),
                            ModelPoint.disc(0.5j))
        assert r.margin >= 0.0 and not r.violated

    def test_real_part_violation(self):
        r = check_two_point(RealPartMap(), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
        assert r.rhs == 0.0
        assert abs(r.lhs - 2.0 * math.atanh(0.5)) <= 1e-12
        assert r.violated

    def test_sampled_families_hold(self, rng):
        families = [
            lambda seed: sample_map("blaschke", seed, {"max_degree": 5}),
            lambda seed: sample_map("disc_automorphism", seed),
            lambda seed: Composition((sample_map("disc_automorphism", seed),
                                      sample_map("blaschke", seed + 1, {"max_degree": 4}))),
        ]
        for i in range(300):
            f = families[i % 3](i)
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 0.1:
                continue
            plain = check_two_point(f, a, b, z)
            sharp = check_two_point(f, a, b, z, sharp=True)
            assert not plain.violated and plain.margin >= -1e-9
            assert not sharp.violated and sharp.margin >= -1e-9
            assert sharp.rhs <= plain.rhs * (1.0 + 1e-12)
            assert sharp.theorem == "two_point_sharp"

    def test_reference_automorphism_reduction(self, rng):
        # the (f, h) report agrees with (h^{-1} o f, identity)
        for i in range(100):
            f = sample_map("blaschke", 1000 + i, {"max_degree": 4})
            h = build_disc_automorphism(random_disc_point(rng), rng.uniform(0, 2 * math.pi))
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 0.1:
                continue
            with_h = check_two_point(f, a, b, z, h=h)
            assert with_h.theorem == "xjb"
            assert not with_h.violated
            reduced = check_two_point(Composition((f, h.inverse())), a, b, z)
            assert abs(with_h.lhs - reduced.lhs) <= 1e-9 * max(1.0, with_h.lhs)
            assert abs(with_h.rhs - reduced.rhs) <= 1e-9 * max(1.0, with_h.rhs)

    def test_non_automorphism_reference_rejected(self):
        shrink = Mobius(0.3, 0.0, 0.0, 1.0, Model.DISC)  # self-map, not onto
        with pytest.raises(PreconditionError):
            check_two_point(Mobius.identity(Model.DISC), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j), h=shrink)

    def test_reference_on_another_model_rejected(self):
        dilation = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        with pytest.raises(PreconditionError, match="must act on the points' model"):
            check_two_point(Mobius.identity(Model.DISC), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j), h=dilation)

    def test_witnesses_serialized(self):
        f = BlaschkeProduct(0.1, (0.2,))
        r = check_two_point(f, ModelPoint.disc(0.3), ModelPoint.disc(-0.3),
                            ModelPoint.disc(0.5j))
        assert r.witnesses["f"]["variant"] == "blaschke"
        assert set(r.witnesses) >= {"f", "a", "b", "z"}

    def test_given_witnesses_are_kept(self):
        r = check_two_point(BlaschkeProduct(0.1, (0.2,)), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
        sample = r.for_sample(7, 3)
        assert sample.witnesses == {**r.witnesses, "seed": 7, "index": 3}
        dropped = dataclasses.replace(sample, witnesses={k: v for k, v in sample.witnesses.items()
                                                         if k != "f"})
        assert set(dropped.to_dict()["witnesses"]) == {"a", "b", "z", "seed", "index"}


class TestCheckFixedPoint:
    def test_identity(self):
        r = check_fixed_point(Mobius.identity(Model.DISC), ModelPoint.disc(0.5),
                              ModelPoint.disc(0.0), ModelPoint.disc(0.3j))
        assert r.lhs == 0.0 and not r.violated

    def test_square_map(self):
        f = BlaschkeProduct(0.0, (0.0, 0.0))  # w^2 fixes 0
        r = check_fixed_point(f, ModelPoint.disc(0.5), ModelPoint.disc(0.0),
                              ModelPoint.disc(0.3j))
        assert r.margin >= 0.0 and not r.violated
        assert r.constant > 1.0

    def test_conjugated_fixed_point(self, rng):
        for i in range(200):
            b = random_disc_point(rng)
            inner = sample_map("blaschke", i, {"max_degree": 3})
            fixing_zero = BlaschkeProduct(inner.rotation, (0.0,) + inner.zeros)
            sigma = build_disc_automorphism(b, 0.0)
            f = Composition((sigma, fixing_zero, sigma.inverse()))
            a = random_disc_point(rng)
            z = random_disc_point(rng)
            if dist(a, b) < 0.1:
                continue
            r = check_fixed_point(f, a, b, z)
            assert not r.violated and r.margin >= -1e-9
            assert r.constant > 1.0

    def test_moving_fixed_point_rejected(self):
        f = BlaschkeProduct(0.0, (0.5,))  # does not fix 0
        with pytest.raises(PreconditionError):
            check_fixed_point(f, ModelPoint.disc(0.5), ModelPoint.disc(0.0),
                              ModelPoint.disc(0.3j))

    def test_growth_vs_sinh_consistency(self, rng):
        # exp(d(a,b)) > 4 sinh(d(a,b)/2) keeps the assembled constant valid
        for _ in range(500):
            a = random_disc_point(rng)
            b = random_disc_point(rng)
            d = dist(a, b)
            if d < 1e-6:
                continue
            assert math.exp(d) > 4.0 * math.sinh(0.5 * d)


class TestCheckPunctured:
    def test_same_map(self):
        f = PuncturedPower(0.3, 2)
        a = ModelPoint.punctured(0.2)
        z = ModelPoint.punctured(0.1j)
        r = check_punctured(f, f, a, z)
        assert r.lhs == 0.0 and not r.violated

    def test_constant_at_density_minimum(self):
        a = ModelPoint.punctured(1.0 / math.e)
        f = PuncturedExp(0.0, 1, 0.2)
        h = PuncturedPower(0.0, 1)
        r = check_punctured(f, h, a, a)  # z = a, so L = 8 e
        assert abs(r.constant - (8.0 * math.e) ** 3) <= 1e-9 * r.constant
        base_gap = punctured_dist(evaluate(f, a), a)
        assert abs(r.rhs - r.constant * base_gap) <= 1e-9 * max(1.0, r.rhs)

    def test_rotation_never_beats_z_equal_a(self, rng):
        # f = e^{is} h with h = z^m and |s| <= pi: d*(f(w), h(w)) = 2 asinh(|s| / (2m y))
        # at the height y = -log|w| of w's lift, heights differ by a factor e^{d*(z,a)} at
        # most, and L >= 8 e e^{d*(z,a)}; so lhs/rhs <= (8e)^-3 e^{-2 d*(z,a)}, with
        # equality at z = a, |a| = 1/e. Half the z lie near a, where the bound is tight
        floor = (8.0 * math.e) ** -3
        for i in range(2000):
            m = int(rng.integers(1, 5))
            s = math.copysign(math.exp(rng.uniform(math.log(1e-3), math.log(math.pi))),
                              rng.uniform(-1.0, 1.0))
            a = random_punctured_point(rng)
            if i % 2:
                z = random_punctured_point(rng)
            else:
                t = math.exp(rng.uniform(math.log(1e-6), 0.0))
                z = ModelPoint.punctured(
                    min(0.99, abs(a.value) * math.exp(rng.uniform(-t, t)))
                    * cmath.exp(1j * (cmath.phase(a.value) + rng.uniform(-t, t))))
            r = check_punctured(PuncturedPower(s, m), PuncturedPower(0.0, m), a, z)
            bound = floor * math.exp(-2.0 * punctured_dist(z, a))
            assert r.lhs / r.rhs <= bound * (1.0 + 1e-9)
        a = ModelPoint.punctured(1.0 / math.e)
        r = check_punctured(PuncturedPower(1.0, 2), PuncturedPower(0.0, 2), a, a)
        assert r.lhs / r.rhs == pytest.approx(floor, rel=4e-16)
        assert floor == pytest.approx(9.724036790598428e-05, rel=4e-16)

    def test_exp_against_identity(self):
        f = PuncturedExp(0.0, 1, 0.1)
        h = PuncturedPower(0.0, 1)
        a = ModelPoint.punctured(math.exp(-2 * math.pi))
        z = ModelPoint.punctured(0.5)
        r = check_punctured(f, h, a, z)
        assert r.margin >= 0.0 and not r.violated

    def test_sampled_family_holds(self, rng):
        for i in range(150):
            f = sample_map("punctured_exp", i, {"max_power": 4, "max_decay": 2.0})
            h = PuncturedPower(rng.uniform(0, 2 * math.pi), f.power)
            a = random_punctured_point(rng)
            z = random_punctured_point(rng)
            r = check_punctured(f, h, a, z)
            assert not r.violated and r.margin >= -1e-9

    def test_degree_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            check_punctured(PuncturedPower(0.0, 2), PuncturedPower(0.0, 3),
                            ModelPoint.punctured(0.3), ModelPoint.punctured(0.2))

    def test_reference_must_be_covering(self):
        with pytest.raises(PreconditionError):
            check_punctured(PuncturedExp(0.0, 2, 0.1), PuncturedExp(0.0, 2, 0.1),
                            ModelPoint.punctured(0.3), ModelPoint.punctured(0.2))


def _disc(re, im):
    return {"model": "disc", "re": re, "im": im}


def _matrix(*entries):
    return {"variant": "mobius_automorphism", "model": "disc",
            "matrix": [list(e) for e in entries]}


_F = {"variant": "blaschke", "rotation": 0.1, "zeros": [[0.2, 0.0], [0.0, 0.3]]}
_ABZ = {"f": _F, "a": _disc(0.3, 0.0), "b": _disc(-0.3, 0.0), "z": _disc(0.0, 0.5)}
_S, _RE, _IM = 1.072112534837795, 0.32163376045133846, 0.214422506967559


def _pinned_reports():
    f = BlaschkeProduct(0.1, (0.2, 0.3j))
    a, b, z = ModelPoint.disc(0.3), ModelPoint.disc(-0.3), ModelPoint.disc(0.5j)
    h = build_disc_automorphism(ModelPoint.disc(0.2 + 0.1j), 0.7)
    fixed = ModelPoint.disc(0.3 + 0.2j)
    sigma = build_disc_automorphism(fixed, 0.0)
    g = Composition((sigma, BlaschkeProduct(0.4, (0.0, 0.5)), sigma.inverse()))
    return {
        "two_point": check_two_point(f, a, b, z),
        "two_point_sharp": check_two_point(f, a, b, z, sharp=True),
        "xjb": check_two_point(f, a, b, z, h=h),
        "fixed_point": check_fixed_point(g, a, fixed, z),
        "punctured": check_punctured(PuncturedExp(0.3, 2, 0.5), PuncturedPower(1.1, 2),
                                     ModelPoint.punctured(0.4 + 0.2j),
                                     ModelPoint.punctured(0.3 - 0.1j)),
        "qlo": qlo_bound(ModelPoint.upper(1 + 1j), ModelPoint.upper(1j),
                         Mobius(2.0, 0.0, 0.0, 0.5, Model.UPPER_HALF_PLANE)),
    }


# lhs, rhs, constant, margin and witnesses of each report above
PINNED = {
    "two_point": ("1.2620048416691767", "57.009257237757645", "38.636555062026254",
                  "55.74725239608847", _ABZ),
    "two_point_sharp": ("1.2620048416691767", "53.524630966303846", "36.274939399395961",
                        "52.262626124634671", _ABZ),
    "xjb": ("0.8838074806410734", "65.310592978317473", "38.636555062026254",
            "64.426785497676406",
            {**_ABZ, "h": _matrix((0.9637760679209145, 0.3518057274267564),
                                  (-0.15757464084150724, -0.16673875227744275),
                                  (-0.15757464084150727, 0.16673875227744275),
                                  (0.9637760679209145, -0.35180572742675636))}),
    "fixed_point": ("1.7463414105288844", "7.4044071161461407", "11.342053029180045",
                    "5.6580657056172559",
                    {"f": {"variant": "composition", "maps": [
                        _matrix((_S, 0.0), (-_RE, -_IM), (-_RE, _IM), (_S, 0.0)),
                        {"variant": "blaschke", "rotation": 0.4,
                         "zeros": [[0.0, 0.0], [0.5, 0.0]]},
                        _matrix((_S, 0.0), (_RE, _IM), (_RE, -_IM), (_S, 0.0)),
                    ]}, "a": _disc(0.3, 0.0), "b": _disc(0.3, 0.2), "z": _disc(0.0, 0.5)}),
    "punctured": ("0.36983969392734534", "63379.900152141177", "147022.93362990968",
                  "63379.530312447248",
                  {"f": {"variant": "punctured_exp", "rotation": 0.3, "power": 2, "decay": 0.5},
                   "h": {"variant": "punctured_power", "rotation": 1.1, "power": 2},
                   "a": {"model": "punctured_disc", "re": 0.4, "im": 0.2},
                   "z": {"model": "punctured_disc", "re": 0.3, "im": -0.1},
                   "L": 52.77906530006952}),
    "qlo": ("1.8472460857138375", "3.6293657558241943", "2.6180339887498949",
            "1.7821196701103568",
            {"w": {"model": "upper_half_plane", "re": 1.0, "im": 1.0},
             "c": {"model": "upper_half_plane", "re": 0.0, "im": 1.0},
             "h": {"variant": "mobius_automorphism", "model": "upper_half_plane",
                   "matrix": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]},
             "axis_distance": 0.881373587019543, "identity_lhs": 1.0606601717798212,
             "identity_rhs": 1.0606601717798212}),
}


def test_report_dicts_are_pinned():
    # every check serialises its witnesses as it builds its report, to the
    # dict a report used to derive from its inputs on demand
    for theorem, report in _pinned_reports().items():
        lhs, rhs, constant, margin, witnesses = PINNED[theorem]
        assert report.to_dict() == {"theorem": theorem, "lhs": lhs, "rhs": rhs,
                                    "constant": constant, "margin": margin,
                                    "violated": False, "witnesses": witnesses}, theorem
