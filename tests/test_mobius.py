import cmath
import math

import numpy as np
import pytest

from hypbound import (
    DomainError,
    HoloMap,
    IntegrityError,
    Mobius,
    Model,
    ModelPoint,
    PreconditionError,
    ValidationError,
    apply,
    build_disc_automorphism,
    dist,
    dist_to_axis,
    hyperbolic_pull,
    map_from_dict,
    qlo_bound,
)
from hypbound.mobius import is_isometry

from conftest import random_disc_point, random_model_point

LN2 = math.log(2.0)


def translation_length(h: Mobius) -> float:
    # the displacement of a hyperbolic map along its axis, from its trace
    return 2.0 * math.acosh(abs(h.a + h.d) / 2.0)


def random_disc_automorphism(rng) -> Mobius:
    center = random_disc_point(rng, radius=2.5)
    return build_disc_automorphism(center, rng.uniform(0.0, 2.0 * math.pi))


class TestMobiusType:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", "abcd")
    def test_non_finite_entry_refused(self, name, value):
        entries = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, name: complex(value, 0.0)}
        with pytest.raises(ValidationError, match=f"^entry {name} must be finite"):
            Mobius(**entries, model=Model.DISC)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row, part", [(0, 0), (1, 1), (3, 0)])
    def test_non_finite_entry_refused_from_json(self, row, part, value):
        matrix = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        matrix[row][part] = value
        spec = {"variant": "mobius_automorphism", "model": "disc", "matrix": matrix}
        with pytest.raises(ValidationError, match=f"^entry {'abcd'[row]} must be finite"):
            map_from_dict(spec)

    def test_normalization(self):
        m = Mobius(2.0, 0.0, 0.0, 2.0, Model.UPPER_HALF_PLANE)
        det = m.a * m.d - m.b * m.c
        assert abs(det - 1.0) <= 1e-14

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            Mobius(1.0, 2.0, 2.0, 4.0, Model.DISC)

    def test_identity_apply(self):
        m = Mobius.identity(Model.DISC)
        z = ModelPoint.disc(0.3 - 0.2j)
        assert apply(m, z).value == z.value

    def test_diagonal_action(self):
        m = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        assert apply(m, ModelPoint.upper(1j)).value == 2j

    def test_automorphism_sends_center_to_origin(self):
        m = build_disc_automorphism(ModelPoint.disc(0.5), 0.0)
        assert abs(m.apply_value(0.5)) <= 1e-15
        assert abs(m.apply_value(0.0) + 0.5) <= 1e-15

    def test_automorphism_trivial_parameters(self):
        m = build_disc_automorphism(ModelPoint.disc(0.0), 0.0)
        assert m.entries == Mobius.identity(Model.DISC).entries

    def test_apply_escaping_image(self):
        # w -> w - x on the right half-plane: an image 5e-13 outside is within
        # the 1e-12 image tolerance but not a valid point; 0.5 outside escapes
        near = Mobius(1.0, -(0.5 + 5e-13), 0.0, 1.0, Model.RIGHT_HALF_PLANE)
        with pytest.raises(ValidationError):
            apply(near, ModelPoint.right(0.5))
        far = Mobius(1.0, -1.0, 0.0, 1.0, Model.RIGHT_HALF_PLANE)
        with pytest.raises(IntegrityError):
            apply(far, ModelPoint.right(0.5))

    # the error type and message of each refused image, as at a separate image check
    @pytest.mark.parametrize("w, model, error, message", [
        (1.5, Model.DISC, IntegrityError, "image 1.5 escapes the disc model"),
        (1 + 2e-12, Model.DISC, IntegrityError, "image 1.000000000002 escapes the disc model"),
        (1 + 5e-13, Model.DISC, ValidationError,
         "(1.0000000000005+0j) is not interior to the disc model"),
        (1 - 1e-15, Model.DISC, ValidationError,
         "(0.999999999999999+0j) is not interior to the disc model"),
        (-2e-12j, Model.UPPER_HALF_PLANE, IntegrityError,
         "image (-0-2e-12j) escapes the upper_half_plane model"),
        (complex(math.nan, 0.0), Model.DISC, ValidationError, "non-finite point (nan+0j)"),
        (complex(math.inf, 0.0), Model.DISC, IntegrityError,
         "image (inf+0j) escapes the disc model"),
        (complex(math.nan, 1.0), Model.UPPER_HALF_PLANE, ValidationError,
         "non-finite point (nan+1j)"),
        (complex(1.0, -math.inf), Model.UPPER_HALF_PLANE, IntegrityError,
         "image (1-infj) escapes the upper_half_plane model"),
        (complex(math.inf, 1.0), Model.UPPER_HALF_PLANE, ValidationError,
         "non-finite point (inf+1j)"),
    ])
    def test_apply_refusals(self, w, model, error, message):
        class Constant(HoloMap):
            def __init__(self):
                self.model = model

            def value_at(self, z):
                return w

        z = ModelPoint.disc(0.5) if model is Model.DISC else ModelPoint.upper(1j)
        with pytest.raises(error) as info:
            apply(Constant(), z)
        assert info.type is error and str(info.value) == message

    def test_apply_model_mismatch(self):
        m = Mobius.identity(Model.DISC)
        with pytest.raises(DomainError):
            apply(m, ModelPoint.upper(1j))

    def test_pole(self):
        m = Mobius(0.0, 1.0, 1.0, 0.0, Model.UPPER_HALF_PLANE)  # -1/z up to sign
        with pytest.raises(DomainError):
            m.apply_value(0.0)

    def test_roundtrip_dict(self):
        m = build_disc_automorphism(ModelPoint.disc(0.2 + 0.1j), 1.0)
        m2 = Mobius.from_dict(m.to_dict())
        for x, y in zip(m.entries, m2.entries):
            assert abs(x - y) <= 1e-15

    def test_composition_homomorphism(self, rng):
        for _ in range(100):
            m1 = random_disc_automorphism(rng)
            m2 = random_disc_automorphism(rng)
            z = random_disc_point(rng)
            lhs = apply(m1.compose(m2), z).value
            rhs = apply(m1, apply(m2, z)).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_inverse_roundtrip(self, rng):
        for _ in range(100):
            m = random_disc_automorphism(rng)
            z = random_disc_point(rng)
            back = apply(m.inverse(), apply(m, z)).value
            assert abs(back - z.value) <= 1e-10

    def test_isometry_every_model(self, rng):
        for _ in range(50):
            m = random_disc_automorphism(rng)
            u, v = random_disc_point(rng), random_disc_point(rng)
            d = dist(u, v)
            assert abs(dist(apply(m, u), apply(m, v)) - d) <= 1e-10 * max(1.0, d)
        for _ in range(50):
            # real entries with positive determinant preserve the upper half-plane
            a, b, c, d_ = rng.normal(size=4)
            if a * d_ - b * c <= 0.05:
                continue
            m = Mobius(a, b, c, d_, Model.UPPER_HALF_PLANE)
            u = random_model_point(rng, Model.UPPER_HALF_PLANE)
            v = random_model_point(rng, Model.UPPER_HALF_PLANE)
            d = dist(u, v)
            assert abs(dist(apply(m, u), apply(m, v)) - d) <= 1e-10 * max(1.0, d)


class TestClassify:
    """A map is hyperbolic when tr^2 - 4 of its matrix on the upper half-plane
    is above its rounding; ``dist_to_axis`` refuses every other map."""

    def test_dilation_is_hyperbolic(self):
        h = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        # its axis is the imaginary axis, through 0 and infinity
        assert dist_to_axis(ModelPoint.upper(3j), h) == 0.0
        assert abs(translation_length(h) - LN2) <= 1e-12

    def test_translation_is_parabolic(self):
        with pytest.raises(DomainError, match="^map is not hyperbolic"):
            dist_to_axis(ModelPoint.upper(1j), Mobius(1.0, 1.0, 0.0, 1.0, Model.UPPER_HALF_PLANE))

    def test_rotation_is_elliptic(self):
        m = Mobius(cmath.exp(1j * math.pi / 3.0), 0.0, 0.0, 1.0, Model.DISC)
        with pytest.raises(DomainError, match="^map is not hyperbolic"):
            dist_to_axis(ModelPoint.disc(0.5), m)

    def test_identity(self):
        for m in (Mobius.identity(Model.DISC), Mobius(3.0, 0.0, 0.0, 3.0, Model.DISC)):
            with pytest.raises(DomainError, match="^map is not hyperbolic"):
                dist_to_axis(ModelPoint.disc(0.5), m)

    def test_generic_parabolic_fixed_point(self):
        # conjugate of z + 1 by -1/z fixes 0
        m = Mobius(1.0, 0.0, -1.0, 1.0, Model.UPPER_HALF_PLANE)
        with pytest.raises(DomainError, match="^map is not hyperbolic"):
            dist_to_axis(ModelPoint.upper(1j), m)

    def test_disc_hyperbolic_axis_on_circle(self, rng):
        # the pull's entries on the upper half-plane are real, so the roots of its
        # fixed-point quadratic, the ends of its axis, lie on the boundary; the
        # axis is the geodesic through p and q, and the pull moves along it
        for _ in range(50):
            p = random_disc_point(rng)
            q = random_disc_point(rng)
            if dist(p, q) < 0.1:
                continue
            h = hyperbolic_pull(p, q)
            assert is_isometry(h)
            assert dist_to_axis(p, h) <= 1e-9 and dist_to_axis(q, h) <= 1e-9
            assert abs(dist(p, apply(h, p)) - translation_length(h)) <= 1e-9

    def test_non_automorphism_refused(self):
        # z -> 2 z is hyperbolic, but not an isometry of the disc
        with pytest.raises(DomainError, match="^map is not an automorphism"):
            dist_to_axis(ModelPoint.disc(0.5), Mobius(2.0, 0.0, 0.0, 1.0, Model.DISC))


class TestHyperbolicPull:
    def test_equal_points_identity(self):
        p = ModelPoint.disc(0.3)
        h = hyperbolic_pull(p, p)
        assert h == Mobius.identity(Model.DISC)

    def test_vertical_dilation(self):
        p, q = ModelPoint.upper(1j), ModelPoint.upper(2j)
        h = hyperbolic_pull(p, q)
        assert abs(h.apply_value(2j) - 1j) <= 1e-12
        # it fixes 0 and infinity
        assert abs(h.b) <= 1e-9 and abs(h.c) <= 1e-9

    def test_disc_radial(self):
        r = 0.4
        h = hyperbolic_pull(ModelPoint.disc(0.0), ModelPoint.disc(r))
        assert abs(h.apply_value(r)) <= 1e-12
        # the diameter's endpoints are fixed
        assert abs(h.apply_value(1.0) - 1.0) <= 1e-9
        assert abs(h.apply_value(-1.0) + 1.0) <= 1e-9

    def test_model_mismatch(self):
        with pytest.raises(DomainError):
            hyperbolic_pull(ModelPoint.disc(0.1), ModelPoint.upper(1j))

    def test_nearly_vertical_geodesic(self):
        # the circle center blows up here; the endpoint near the origin must
        # still come out accurately
        for dx in (1e-11, 1e-9, 1e-7, 1e-4):
            p = ModelPoint.upper(complex(dx, 1.0))
            q = ModelPoint.upper(complex(0.0, 2.0))
            h = hyperbolic_pull(p, q)
            assert abs(apply(h, q).value - p.value) <= 1e-12
            d = dist(p, q)
            assert abs(translation_length(h) - d) <= 1e-12 * d

    def test_far_apart_at_one_height(self):
        # a semicircle of radius 1e6 through points at height 1: a pull built from
        # its endpoints erred by a relative 8e-6 in its translation length
        p, q = ModelPoint.upper(complex(1e6, 1.0)), ModelPoint.upper(complex(-1e6, 1.0))
        h = hyperbolic_pull(p, q)
        d = dist(p, q)
        assert abs(translation_length(h) - d) <= 1e-12 * d
        assert abs(h.apply_value(q.value) - p.value) <= 1e-8 * abs(p.value)

    @pytest.mark.parametrize("p, q", [
        (ModelPoint.upper(2e-7j), ModelPoint.upper(1e-7j)),
        (ModelPoint.upper(complex(1.0, 1e-7)), ModelPoint.upper(complex(1.0 + 1e-8, 2e-7))),
        (ModelPoint.disc(-(1.0 - 1e-7)), ModelPoint.disc(-(1.0 - 2e-7))),
        (ModelPoint.disc(complex(-(1.0 - 1e-7), 1e-8)),
         ModelPoint.disc(complex(-(1.0 - 1e-7), -1e-8))),
    ])
    def test_nearby_points_near_the_boundary(self, p, q):
        # the conjugating matrix's determinant is of order Im q here; the
        # pull must not inherit it and look singular
        h = hyperbolic_pull(p, q)
        assert abs(h.apply_value(q.value) - p.value) <= 1e-8 * max(1.0, abs(p.value))
        assert dist_to_axis(q, h) >= 0.0  # defined: h is hyperbolic

    def test_pull_properties(self, rng):
        for _ in range(200):
            p = random_disc_point(rng)
            q = random_disc_point(rng)
            d = dist(p, q)
            if d < 0.1:
                continue
            h = hyperbolic_pull(p, q)
            assert abs(translation_length(h) - d) <= 1e-9 * max(1.0, d)
            assert abs(apply(h, q).value - p.value) <= 1e-10


class TestQloBound:
    def test_base_point_equality(self):
        h = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        c = ModelPoint.upper(1j)
        report = qlo_bound(c, c, h)
        # at the base point the growth factor is 1 and the bound is tight
        assert abs(report.constant - 1.0) <= 1e-12
        assert abs(report.margin) <= 1e-12

    def test_closed_witness(self):
        h = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        report = qlo_bound(ModelPoint.upper(1 + 1j), ModelPoint.upper(1j), h)
        assert abs(math.sinh(0.5 * report.lhs) - 0.5) <= 1e-9
        assert abs(report.witnesses["identity_lhs"] - 0.5) <= 1e-9
        assert abs(report.witnesses["identity_rhs"] - 0.5) <= 1e-9
        assert report.margin >= -1e-9

    def test_non_hyperbolic_rejected(self):
        # z -> z + 1, a rotation and the identity
        h = Mobius(1.0, 1.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        with pytest.raises(DomainError):
            qlo_bound(ModelPoint.upper(1j), ModelPoint.upper(1j), h)
        for h in (Mobius(1j, 0.0, 0.0, 1.0, Model.DISC), Mobius.identity(Model.DISC)):
            with pytest.raises(DomainError, match="^map is not hyperbolic"):
                qlo_bound(ModelPoint.disc(0.3j), ModelPoint.disc(0.0), h)

    def test_model_mismatch_rejected(self):
        h = hyperbolic_pull(ModelPoint.disc(0.5), ModelPoint.disc(0.0))
        for w, c in [(ModelPoint.upper(1j), ModelPoint.disc(0.0)),
                     (ModelPoint.disc(0.3j), ModelPoint.upper(1j))]:
            with pytest.raises(DomainError, match="differs from map model"):
                qlo_bound(w, c, h)

    @pytest.mark.parametrize("d", [1e-4, 3e-5, 1e-5, 1e-6])
    def test_short_pull_is_hyperbolic(self, d):
        # tr^2 - 4 is about d^2 here: a 1e-9 band on it called these maps parabolic
        h = hyperbolic_pull(ModelPoint.disc(math.tanh(d / 2.0)), ModelPoint.disc(0.0))
        report = qlo_bound(ModelPoint.disc(0.3j), ModelPoint.disc(0.0), h)
        assert not report.violated
        # 0.3 i is 2 atanh(0.3) from the axis, the real diameter
        assert abs(report.witnesses["axis_distance"] - 2.0 * math.atanh(0.3)) <= 1e-15
        lhs, rhs = report.witnesses["identity_lhs"], report.witnesses["identity_rhs"]
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_off_axis_rejected(self):
        h = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)
        with pytest.raises(PreconditionError):
            qlo_bound(ModelPoint.upper(1j), ModelPoint.upper(1 + 1j), h)

    def test_sampled_margins(self, rng):
        for _ in range(500):
            p = random_disc_point(rng)
            q = random_disc_point(rng)
            if dist(p, q) < 0.1:
                continue
            h = hyperbolic_pull(p, q)
            c = q  # on the axis by construction
            w = apply(build_disc_automorphism(c, 0.0).inverse(),
                      random_disc_point(rng, radius=3.0))
            report = qlo_bound(w, c, h)
            assert report.margin >= -1e-9
            lhs, rhs = report.witnesses["identity_lhs"], report.witnesses["identity_rhs"]
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_axis_distance_vertical():
    # distance from re^{i t} to the imaginary axis satisfies sinh d = |cot t|
    h = Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE)  # axis from 0 to infinity
    d = dist_to_axis(ModelPoint.upper(1 + 1j), h)
    assert abs(math.sinh(d) - 1.0) <= 1e-12


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.5, 1.0, 1.0 + 1e-9, 3.0, 1e3, 1e6])
def test_axis_distance_to_a_semicircle(t):
    # t i lies on the imaginary axis, which meets the unit semicircle at i
    # at a right angle, so its distance to that geodesic is d(t i, i) = |ln t|
    h = Mobius(5.0, 4.0, 4.0, 5.0, Model.UPPER_HALF_PLANE)  # it fixes -1 and 1
    d = dist_to_axis(ModelPoint.upper(complex(0.0, t)), h)
    assert abs(d - abs(math.log(t))) <= 1e-15 + 1e-14 * abs(math.log(t))


@pytest.mark.parametrize("model, automorphisms, others", [
    (Model.UPPER_HALF_PLANE,
     [(2.0, 0.0, 0.0, 1.0), (1.0, 1.0, 0.0, 1.0), (0.0, -1.0, 1.0, 0.0)],
     [(1.0, 1j, 0.0, 1.0), (1j, 0.0, 0.0, 1.0)]),
    (Model.RIGHT_HALF_PLANE,
     [(2.0, 0.0, 0.0, 1.0), (1.0, 1j, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)],
     [(1.0, 1.0, 0.0, 1.0), (1j, 0.0, 0.0, 1.0)]),
], ids=["upper", "right"])
def test_is_isometry_half_planes(model, automorphisms, others):
    # after normalization: real entries on the upper half-plane; real diagonal
    # and imaginary off-diagonal on the right half-plane
    for entries in automorphisms:
        assert is_isometry(Mobius(*entries, model))
    for entries in others:  # a translation that is not onto, a rotation off the model
        assert not is_isometry(Mobius(*entries, model))


def test_is_isometry_punctured_disc():
    # the automorphisms of the punctured disc are the rotations
    rotation = Mobius(cmath.exp(0.7j), 0.0, 0.0, 1.0, Model.PUNCTURED_DISC)
    assert is_isometry(rotation) and is_isometry(Mobius.identity(Model.PUNCTURED_DISC))
    for entries in [(0.0, 1.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0), (1.0, 0.1, 0.0, 1.0)]:
        assert not is_isometry(Mobius(*entries, Model.PUNCTURED_DISC))  # 1/z, 2z, z + 0.1
    # a disc automorphism that moves 0 is not one
    assert not is_isometry(Mobius(*build_disc_automorphism(ModelPoint.disc(0.5), 0.0).entries,
                                  Model.PUNCTURED_DISC))


@pytest.mark.parametrize("model, entries", [
    ("disc", (2.0, 0.0, 0.0, 1.0)), ("upper_half_plane", (1.0, 1j, 0.0, 1.0)),
], ids=["disc-dilation", "upper-complex-translation"])
def test_json_non_automorphism_refused(model, entries):
    # the punctured disc's are refused through the CLI in test_harness.py
    matrix = [[e.real, e.imag] for e in map(complex, entries)]
    with pytest.raises(ValidationError, match=f"^matrix is not an automorphism of the {model}"):
        map_from_dict({"variant": "mobius_automorphism", "model": model, "matrix": matrix})


def test_sinh_ratio_increasing():
    xs = np.linspace(1e-3, 10.0, 2000)
    ratio = np.sinh(xs) / xs
    assert np.all(np.diff(ratio) > 0.0)
