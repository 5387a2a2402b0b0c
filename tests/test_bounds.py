import dataclasses
import json
import math

import pytest

from hypbound import (
    BlaschkeProduct,
    Composition,
    Identity,
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
        r = check_two_point(Identity(Model.DISC), ModelPoint.disc(0.3),
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
            check_two_point(Identity(Model.DISC), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j), h=shrink)

    def test_witnesses_serialized(self):
        f = BlaschkeProduct(0.1, (0.2,))
        r = check_two_point(f, ModelPoint.disc(0.3), ModelPoint.disc(-0.3),
                            ModelPoint.disc(0.5j))
        assert r.witnesses["f"]["variant"] == "blaschke"
        assert set(r.witnesses) >= {"f", "a", "b", "z"}

    def test_inputs_named_like_a_sample_key_still_serialise(self):
        r = check_two_point(BlaschkeProduct(0.1, (0.2,)), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
        named = dataclasses.replace(r, inputs={**r.inputs, "seed": ModelPoint.disc(0.1),
                                               "index": ModelPoint.disc(0.2)}, witnesses=None)
        json.dumps(named.to_dict())
        assert named.witnesses["index"] == ModelPoint.disc(0.2).to_dict()
        assert named.witnesses["f"]["variant"] == "blaschke"

    def test_given_witnesses_are_kept(self):
        r = check_two_point(BlaschkeProduct(0.1, (0.2,)), ModelPoint.disc(0.3),
                            ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
        sample = r.for_sample(7, 3)
        assert sample.witnesses == {**r.witnesses, "seed": 7, "index": 3}
        assert sample.inputs == {}
        dropped = dataclasses.replace(sample, witnesses={k: v for k, v in sample.witnesses.items()
                                                         if k != "f"})
        assert set(dropped.to_dict()["witnesses"]) == {"a", "b", "z", "seed", "index"}


class TestCheckFixedPoint:
    def test_identity(self):
        r = check_fixed_point(Identity(Model.DISC), ModelPoint.disc(0.5),
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
        h = Identity(Model.PUNCTURED_DISC)
        r = check_punctured(f, h, a, a)  # z = a, so L = 8 e
        assert abs(r.constant - (8.0 * math.e) ** 3) <= 1e-9 * r.constant
        base_gap = punctured_dist(evaluate(f, a), a)
        assert abs(r.rhs - r.constant * base_gap) <= 1e-9 * max(1.0, r.rhs)

    def test_exp_against_identity(self):
        f = PuncturedExp(0.0, 1, 0.1)
        h = Identity(Model.PUNCTURED_DISC)
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
