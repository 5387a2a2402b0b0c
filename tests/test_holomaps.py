import cmath
import math

import numpy as np
import pytest

from hypbound import (
    BlaschkeProduct,
    Composition,
    DomainError,
    HalfPlaneTranslate,
    IntegrityError,
    Mobius,
    Model,
    ModelPoint,
    PuncturedExp,
    PuncturedPower,
    RealPartMap,
    UsageError,
    ValidationError,
    apply,
    build_disc_automorphism,
    declared_degree,
    dist,
    evaluate,
    map_from_dict,
    sample_map,
)

from conftest import random_disc_point, random_model_point, random_punctured_point


def all_variant_examples():
    return [
        Mobius.identity(Model.DISC),
        Mobius(1.0, -0.3, -0.3, 1.0, Model.DISC),
        BlaschkeProduct(0.7, (0.2 + 0.1j, -0.4j, 0.5)),
        HalfPlaneTranslate(0.25),
        PuncturedPower(1.1, 2),
        PuncturedExp(0.3, 3, 1.5),
        Composition((BlaschkeProduct(0.0, (0.3,)), BlaschkeProduct(0.2, (0.0, -0.2j)))),
        RealPartMap(),
    ]


def sample_point_for(f, rng) -> ModelPoint:
    if f.model is Model.DISC:
        return random_disc_point(rng)
    if f.model is Model.RIGHT_HALF_PLANE:
        return ModelPoint.right(complex(rng.uniform(0.05, 5.0), rng.uniform(-3.0, 3.0)))
    return random_punctured_point(rng)


class TestEvaluate:
    def test_identity(self):
        z = ModelPoint.disc(0.3 + 0.2j)
        assert evaluate(Mobius.identity(Model.DISC), z).value == z.value

    def test_halfplane_translate(self):
        out = evaluate(HalfPlaneTranslate(0.01), ModelPoint.right(0.1))
        assert abs(out.value - 0.11) <= 1e-15

    def test_punctured_exp_value(self):
        out = evaluate(PuncturedExp(0.0, 2, 1.0), ModelPoint.punctured(0.5))
        assert abs(out.value - 0.25 * math.exp(-0.5)) <= 1e-15

    def test_model_mismatch(self):
        with pytest.raises(DomainError):
            evaluate(Mobius.identity(Model.DISC), ModelPoint.upper(1j))

    def test_escaping_image(self):
        # w -> 2w is not a self-map of the disc: 0.9 goes to 1.8
        f = Mobius(2.0, 0.0, 0.0, 1.0, Model.DISC)
        with pytest.raises(IntegrityError):
            evaluate(f, ModelPoint.disc(0.9))

    def test_maps_stay_inside_model(self, rng):
        for f in all_variant_examples():
            for _ in range(100):
                z = sample_point_for(f, rng)
                evaluate(f, z)  # raises if the image leaves the model

    def test_punctured_exp_zero_free(self, rng):
        f = PuncturedExp(0.4, 2, 1.7)
        for _ in range(200):
            z = random_punctured_point(rng)
            w = f.value_at(z.value)
            r = abs(z.value)
            assert abs(abs(w) - r ** 2 * math.exp(1.7 * (z.value.real - 1.0))) <= 1e-13
            assert 0.0 < abs(w) < 1.0


class TestVariantValidation:
    def test_blaschke_needs_zero(self):
        with pytest.raises(ValidationError):
            BlaschkeProduct(0.0, ())

    def test_blaschke_zero_inside(self):
        with pytest.raises(ValidationError):
            BlaschkeProduct(0.0, (1.0,))

    def test_translate_nonnegative(self):
        with pytest.raises(ValidationError):
            HalfPlaneTranslate(-0.1)

    def test_power_positive(self):
        with pytest.raises(ValidationError):
            PuncturedPower(0.0, 0)

    def test_exp_decay_nonnegative(self):
        with pytest.raises(ValidationError):
            PuncturedExp(0.0, 1, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, name", [
        (lambda v: BlaschkeProduct(v, (0.1,)), "rotation"),
        (lambda v: PuncturedPower(v, 2), "rotation"),
        (lambda v: PuncturedExp(v, 2, 1.0), "rotation"),
        (lambda v: PuncturedExp(0.0, 2, v), "decay"),
        (lambda v: HalfPlaneTranslate(v), "offset"),
    ], ids=["blaschke-rotation", "power-rotation", "exp-rotation", "exp-decay",
            "translate-offset"])
    def test_non_finite_parameter_refused(self, make, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            make(value)

    @pytest.mark.parametrize("spec, name", [
        ({"variant": "blaschke", "rotation": math.nan, "zeros": [[0.1, 0.0]]}, "rotation"),
        ({"variant": "punctured_power", "rotation": math.inf, "power": 2}, "rotation"),
        ({"variant": "punctured_exp", "rotation": 0.0, "power": 2, "decay": math.nan},
         "decay"),
        ({"variant": "halfplane_translate", "offset": math.inf}, "offset"),
        ({"variant": "composition", "maps": [
            {"variant": "punctured_exp", "rotation": -math.inf, "power": 1, "decay": 0.0}]},
         "rotation"),
    ], ids=["blaschke-rotation", "power-rotation", "exp-decay", "translate-offset",
            "composed-exp-rotation"])
    def test_non_finite_parameter_refused_from_json(self, spec, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            map_from_dict(spec)

    def test_non_finite_blaschke_zero_refused(self):
        with pytest.raises(ValidationError):
            BlaschkeProduct(0.0, (complex(math.nan, 0.0),))

    def test_composition_single_model(self):
        with pytest.raises(ValidationError):
            Composition((Mobius.identity(Model.DISC), PuncturedPower(0.0, 1)))

    def test_contraction_flag(self):
        assert RealPartMap().contraction_only
        assert not BlaschkeProduct(0.0, (0.1,)).contraction_only


class TestContraction:
    def test_schwarz_pick_all_holomorphic_variants(self, rng):
        for f in all_variant_examples():
            if f.contraction_only:
                continue
            for _ in range(100):
                u = sample_point_for(f, rng)
                v = sample_point_for(f, rng)
                assert dist(evaluate(f, u), evaluate(f, v)) <= dist(u, v) + 1e-9

    def test_strict_at_origin(self, rng):
        # a product fixing 0 with a second zero shrinks moduli strictly
        f = BlaschkeProduct(0.3, (0.0, 0.4 - 0.2j))
        for _ in range(300):
            w = random_disc_point(rng).value
            if abs(w) < 1e-6:
                continue
            assert abs(f.value_at(w)) < abs(w)

    def test_real_part_contracts_but_is_flagged(self, rng):
        f = RealPartMap()
        assert f.contraction_only
        for _ in range(300):
            u = random_disc_point(rng)
            v = random_disc_point(rng)
            assert dist(evaluate(f, u), evaluate(f, v)) <= dist(u, v) + 1e-9

    def test_real_part_fixes_reals(self):
        out = evaluate(RealPartMap(), ModelPoint.disc(0.731))
        assert out.value == 0.731 + 0j


class TestSampleMap:
    def test_deterministic(self):
        f1 = sample_map("blaschke", 42, {"max_degree": 3})
        f2 = sample_map("blaschke", 42, {"max_degree": 3})
        assert f1.to_dict() == f2.to_dict()

    def test_blaschke_ranges(self):
        for seed in range(30):
            f = sample_map("blaschke", seed, {"max_degree": 3})
            assert 1 <= len(f.zeros) <= 3
            assert all(abs(z) <= 0.95 for z in f.zeros)

    def test_punctured_exp_ranges(self):
        for seed in range(30):
            f = sample_map("punctured_exp", seed, {"max_power": 5, "max_decay": 2.0})
            assert 1 <= f.power <= 5
            assert 0.0 <= f.decay <= 2.0

    def test_near_identity_displacement(self):
        origin = ModelPoint.disc(0.0)
        for seed in range(30):
            f = sample_map("near_identity", seed, {"eps": 1e-3})
            assert dist(evaluate(f, origin), origin) < 1e-3

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            sample_map("quadratic", 1)

    @staticmethod
    def reference_map(family: str, seed: int, params: dict):
        """The sampler with one Generator.uniform call per draw."""
        rng = np.random.default_rng(seed)

        def disc(radius):
            r = radius * math.sqrt(rng.uniform(0.0, 1.0))
            return r * cmath.exp(1j * rng.uniform(0.0, math.tau))

        if family == "blaschke":
            degree = int(rng.integers(1, params["max_degree"] + 1))
            zeros = tuple(disc(0.95) for _ in range(degree))
            return BlaschkeProduct(rng.uniform(0.0, math.tau), zeros)
        if family == "disc_automorphism":
            center = ModelPoint.disc(disc(0.95))
            return build_disc_automorphism(center, rng.uniform(0.0, math.tau))
        if family == "punctured_exp":
            power = int(rng.integers(1, params["max_power"] + 1))
            rotation = rng.uniform(0.0, math.tau)
            return PuncturedExp(rotation, power, rng.uniform(0.0, params["max_decay"]))
        eps = params["eps"]
        center = ModelPoint.disc(disc(math.tanh(eps / 8.0)))
        return build_disc_automorphism(center, rng.uniform(-eps / 4.0, eps / 4.0))

    @pytest.mark.parametrize("family, params", [
        ("blaschke", {"max_degree": 16}),
        ("disc_automorphism", {}),
        ("punctured_exp", {"max_power": 4, "max_decay": 2.0}),
        ("near_identity", {"eps": 1e-3}),
    ])
    def test_draws_equal_one_uniform_call_per_draw(self, family, params):
        # one rng.random(n) call per map yields what n scalar draws would
        for seed in range(1000):
            got = sample_map(family, seed, params).to_dict()
            assert got == self.reference_map(family, seed, params).to_dict(), seed

    @pytest.mark.parametrize("family, params", [
        ("blaschke", {}),
        ("punctured_exp", {"max_power": 4}),
    ])
    def test_campaign_params_are_required(self, family, params):
        # their defaults belong to the campaign families, which pass them in
        with pytest.raises(KeyError):
            sample_map(family, 1, params)

    @pytest.mark.parametrize("family, params", [
        ("blaschke", {"max_degree": 0}),
        ("punctured_exp", {"max_power": 0}),
        ("punctured_exp", {"max_decay": -1.0}),
        ("punctured_exp", {"max_decay": math.nan}),
        ("punctured_exp", {"max_decay": math.inf}),
        ("near_identity", {"eps": 0.0}),
        ("near_identity", {"eps": math.nan}),
    ])
    def test_out_of_range_params_refused(self, family, params):
        with pytest.raises(UsageError, match=next(iter(params))):
            sample_map(family, 1, params)


class TestDeclaredDegree:
    def test_power(self):
        assert declared_degree(PuncturedPower(0.2, 3)) == 3

    def test_identity_on_punctured(self):
        assert declared_degree(PuncturedPower(0.0, 1)) == 1
        assert declared_degree(Mobius.identity(Model.DISC)) is None

    def test_composition_multiplies(self):
        f = Composition((PuncturedPower(0.0, 2), PuncturedPower(0.0, 3)))
        assert declared_degree(f) == 6

    def test_non_punctured_is_none(self):
        assert declared_degree(BlaschkeProduct(0.0, (0.1,))) is None


class TestSerialization:
    def test_roundtrip_all_variants(self, rng):
        for f in all_variant_examples():
            g = map_from_dict(f.to_dict())
            assert type(g) is type(f) and g.model is f.model
            for _ in range(20):
                z = sample_point_for(f, rng).value
                assert abs(g.value_at(z) - f.value_at(z)) <= 1e-13

    def test_mobius_dict_is_pinned(self):
        m = Mobius(1.25, 0.75, 0.75, 1.25, Model.DISC)  # determinant 1 already
        assert m.to_dict() == {"variant": "mobius_automorphism", "model": "disc",
                               "matrix": [[1.25, 0.0], [0.75, 0.0], [0.75, 0.0], [1.25, 0.0]]}

    def test_punctured_power_dict_is_pinned(self):
        # the h witness of every punctured report: no decay key
        assert PuncturedPower(0.5, 3).to_dict() == {"variant": "punctured_power",
                                                    "rotation": 0.5, "power": 3}

    @pytest.mark.parametrize("model", list(Model), ids=[m.value for m in Model])
    def test_identity_dict_is_read_on_every_model(self, model, rng):
        g = map_from_dict({"variant": "identity", "model": model.value})
        if model is Model.PUNCTURED_DISC:
            assert g == PuncturedPower(0.0, 1) and g.declared_degree() == 1
        else:
            assert g == Mobius.identity(model) and g.declared_degree() is None
        for _ in range(20):
            z = (random_punctured_point(rng) if model is Model.PUNCTURED_DISC
                 else random_model_point(rng, model))
            assert evaluate(g, z).value == z.value

    def test_sampled_automorphisms_are_mobius_maps(self):
        for family in ("disc_automorphism", "near_identity"):
            for seed in range(10):
                m = sample_map(family, seed)
                assert isinstance(m, Mobius)
                g = map_from_dict(m.to_dict())
                assert isinstance(g, Mobius) and g.model is Model.DISC
                for x, y in zip(m.entries, g.entries):  # renormalized: a few ulps
                    assert abs(x - y) <= 1e-14 * (1.0 + abs(x))

    def test_mobius_call_is_apply(self, rng):
        m = sample_map("disc_automorphism", 3)
        for _ in range(20):
            p = random_disc_point(rng)
            assert m(p) == apply(m, p) == evaluate(m, p)
        # the closed-form derivative against a central difference
        z, h = 0.3j, 1e-6
        slope = (m.value_at(z + h) - m.value_at(z - h)) / (2.0 * h)
        assert abs(m._derivative(z) - slope) <= 1e-8

    def test_unknown_variant(self):
        with pytest.raises(UsageError):
            map_from_dict({"variant": "entire"})
