import cmath
import math

import pytest

from hypbound import (
    Composition,
    DomainError,
    HoloMap,
    Identity,
    Model,
    ModelPoint,
    PreconditionError,
    PuncturedExp,
    PuncturedPower,
    RealPartMap,
    ValidationError,
    cover_pi,
    declared_degree,
    degree_contour,
    density_punctured,
    evaluate,
    lift_map,
    lift_map_eval,
    normalized_lift,
    principal_lift,
    dist,
    punctured_dist,
    sample_map,
)

from hypbound.cli import parse_map_spec

from conftest import random_punctured_point

TWO_PI = 2.0 * math.pi
E2PI = math.exp(-TWO_PI)


def brute_force_punctured_dist(z: ModelPoint, a: ModelPoint, window: int = 10) -> float:
    """Independent oracle: scan a fixed deck window of integer translates."""
    zt = principal_lift(z).value
    at = principal_lift(a)
    return min(dist(ModelPoint.upper(zt + k), at) for k in range(-window, window + 1))


def window_min(u: complex, v: complex, center: int = 0, window: int = 8) -> tuple:
    """Brute-force reference for the nearest deck translate: the least
    (distance, offset) of d(u + k, v) over a window of offsets k; on equal
    distances the lower offset wins."""
    return min((dist(ModelPoint.upper(u + k), ModelPoint.upper(v)), k)
               for k in range(center - window, center + window + 1))


class TestCoverPi:
    def test_at_i(self):
        out = cover_pi(ModelPoint.upper(1j))
        assert abs(out.value - E2PI) <= 1e-18

    def test_period_one(self):
        base = cover_pi(ModelPoint.upper(0.25 + 1j)).value
        shifted = cover_pi(ModelPoint.upper(3.25 + 1j)).value
        assert abs(base - shifted) <= 1e-15

    def test_half_period_rotation(self):
        out = cover_pi(ModelPoint.upper(0.5 + 1j))
        assert abs(out.value + E2PI) <= 1e-18

    def test_needs_upper_point(self):
        with pytest.raises(ValidationError):
            cover_pi(ModelPoint.disc(0.5))


class TestPrincipalLift:
    def test_inverse_of_cover(self, rng):
        for _ in range(200):
            z = random_punctured_point(rng)
            zeta = principal_lift(z)
            assert -0.5 < zeta.value.real <= 0.5
            assert abs(cover_pi(zeta).value - z.value) <= 1e-14

    def test_height_formula(self, rng):
        for _ in range(200):
            z = random_punctured_point(rng)
            assert abs(principal_lift(z).value.imag + math.log(abs(z.value)) / TWO_PI) <= 1e-15


class TestPuncturedDist:
    def test_coincident(self):
        z = ModelPoint.punctured(0.3 + 0.1j)
        assert punctured_dist(z, z) == 0.0

    def test_imaginary_axis_lifts(self):
        z = ModelPoint.punctured(E2PI)
        a = ModelPoint.punctured(math.exp(-2 * TWO_PI))
        d = punctured_dist(z, a)
        assert abs(d - math.log(2.0)) <= 1e-12
        assert abs(d - brute_force_punctured_dist(z, a)) <= 1e-14

    def test_half_turn(self):
        z = ModelPoint.punctured(-E2PI)
        a = ModelPoint.punctured(E2PI)
        d = punctured_dist(z, a)
        assert abs(d - math.acosh(1.125)) <= 1e-12
        assert abs(d - brute_force_punctured_dist(z, a)) <= 1e-14

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            z = random_punctured_point(rng)
            a = random_punctured_point(rng)
            assert abs(punctured_dist(z, a) - brute_force_punctured_dist(z, a)) <= 1e-12

    def test_metric_properties(self, rng):
        for _ in range(200):
            x = random_punctured_point(rng)
            y = random_punctured_point(rng)
            z = random_punctured_point(rng)
            dxy = punctured_dist(x, y)
            assert abs(dxy - punctured_dist(y, x)) <= 1e-10 * max(1.0, dxy)
            assert punctured_dist(x, z) <= dxy + punctured_dist(y, z) + 1e-9

    def test_below_principal_lift_distance(self, rng):
        for _ in range(200):
            z = random_punctured_point(rng)
            a = random_punctured_point(rng)
            upper = dist(principal_lift(z), principal_lift(a))
            assert punctured_dist(z, a) <= upper + 1e-12


class TestDeckTranslation:
    def test_punctured_dist_equals_window_min(self, rng):
        pairs = []
        for _ in range(200):
            pairs.append((random_punctured_point(rng), random_punctured_point(rng)))
        for r, s in ((0.3, 0.6), (0.05, 0.9), (E2PI, E2PI)):
            # negative real axis: argument +pi or -pi, principal Re +1/2 or -1/2;
            # against the positive axis (Re 0) both deck offsets are exactly tied
            for neg in (ModelPoint.punctured(complex(-r, 0.0)),
                        ModelPoint.punctured(complex(-r, -0.0))):
                pos = ModelPoint.punctured(s)
                pairs += [(neg, pos), (pos, neg)]
        for z, a in pairs:
            zt, at = principal_lift(z).value, principal_lift(a).value
            assert punctured_dist(z, a) == window_min(zt, at)[0]

    def test_exact_ties_resolve_to_lower_offset(self):
        # identity against e^{+-i pi} z: the reference lift sits at Re +-1/2
        # while f's principal lift sits at Re 0, so offsets k and k + 1 tie
        anchor = ModelPoint.upper(0.7j)
        f = Identity(Model.PUNCTURED_DISC)
        for theta, expected in ((math.pi, 0), (-math.pi, -1)):
            h = PuncturedPower(theta, 1)
            base = principal_lift(evaluate(f, cover_pi(anchor))).value
            href = h.lift(anchor.value)
            below = dist(ModelPoint.upper(base + expected), ModelPoint.upper(href))
            above = dist(ModelPoint.upper(base + expected + 1), ModelPoint.upper(href))
            assert below == above
            lifted, disp = normalized_lift(f, h, anchor)
            assert (disp, lifted.deck_offset) == window_min(base, href) == (below, expected)

    def test_far_anchor(self):
        # the reference lift 2 * anchor has real part near 2^22, beyond any
        # fixed search window around 0
        anchor = ModelPoint.upper(2.0 ** 21 + 0.3 + 0.8j)
        f = PuncturedExp(0.2, 2, 0.3)
        h = PuncturedPower(0.0, 2)
        base = principal_lift(evaluate(f, cover_pi(anchor))).value
        href = h.lift(anchor.value)
        assert abs(href.real) > 2.0 ** 20
        expected = window_min(base, href, center=round(href.real - base.real))
        lifted, disp = normalized_lift(f, h, anchor)
        assert (disp, lifted.deck_offset) == expected
        assert lifted.anchor_value == base + lifted.deck_offset


class TestDensityEstimates:
    def test_trivial_lower_bounds(self, rng):
        # lambda(z) >= e, >= -log|z|, >= -1/log|z| across the punctured disc
        for _ in range(10_000):
            r = rng.uniform(1e-6, 1.0 - 1e-9)
            z = ModelPoint.punctured(r * cmath.exp(1j * rng.uniform(0, TWO_PI)))
            lam = density_punctured(z)
            log_r = math.log(abs(z.value))
            assert lam >= math.e - 1e-12
            assert lam >= -log_r - 1e-12
            assert lam >= -1.0 / log_r - 1e-12


class TestDegreeContour:
    def test_identity_has_degree_one(self):
        result = degree_contour(Identity(Model.PUNCTURED_DISC))
        assert result.value == 1 and result.residual < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_powers(self, m):
        result = degree_contour(PuncturedPower(0.7, m))
        assert result.value == m and result.residual < 1e-6

    def test_exp_family(self):
        result = degree_contour(PuncturedExp(0.0, 2, 1.0))
        assert result.value == 2 and result.residual < 1e-6

    def test_matches_declared_degree(self, rng):
        for seed in range(20):
            f = sample_map("punctured_exp", seed, {"max_power": 6, "max_decay": 2.0})
            assert degree_contour(f).value == declared_degree(f)

    def test_composition_multiplies(self):
        f = Composition((PuncturedExp(0.1, 2, 0.5), PuncturedPower(0.4, 3)))
        assert degree_contour(f).value == 6 == declared_degree(f)

    def test_wrong_model_rejected(self):
        with pytest.raises(DomainError):
            degree_contour(Identity(Model.DISC))
        with pytest.raises(DomainError):
            degree_contour(RealPartMap())

    @pytest.mark.parametrize("f", [PuncturedExp(0.3, 40, 2.0), PuncturedPower(0.0, 60),
                                   Composition((PuncturedPower(0.0, 8), PuncturedExp(0.0, 6, 1.0))),
                                   PuncturedPower(0.0, 2000),
                                   Composition((PuncturedPower(0.0, 1), PuncturedPower(0.0, 2000)))])
    def test_high_degree_zero_free_maps(self, f):
        # |f| is about 0.5**m on the contour, below any absolute threshold;
        # from m = 1075 on it underflows to 0, but f'/f = m/z stays finite
        result = degree_contour(f)
        assert result.value == declared_degree(f) and result.residual < 1e-6

    def test_map_vanishing_on_the_contour_is_refused(self):
        class Vanishing(HoloMap):
            # scale (z - 1/2) + offset: a zero at the contour node z = 1/2,
            # or, with an offset, 1e-320 away, where f'/f overflows
            model = Model.PUNCTURED_DISC

            def __init__(self, scale, offset):
                self.scale, self.offset = scale, offset

            def value_at(self, z):
                return self.scale * (z - 0.5) + self.offset

            def _derivative(self, z):
                return self.scale

        for scale, offset in ((1.0, 0.0), (1e-300, 0.0), (1.0, 1e-320)):
            with pytest.raises(DomainError, match="vanishes"):
                degree_contour(Vanishing(scale, offset))
        # z^2000 underflows to 0 on the contour, and the outer map's f'/f
        # divides by that image
        with pytest.raises(DomainError, match="vanishes"):
            degree_contour(Composition((PuncturedPower(0.0, 2000), PuncturedPower(0.0, 1))))


class TestLifts:
    def test_power_lift_is_linear(self):
        lifted = lift_map(PuncturedPower(0.0, 3), ModelPoint.upper(1j))
        assert abs(lifted.anchor_value - 3j) <= 1e-15
        zeta = ModelPoint.upper(0.3 + 0.8j)
        out = lift_map_eval(lifted, zeta)
        assert abs(out.value - 3 * zeta.value) <= 1e-9

    def test_defining_property(self, rng):
        for seed in range(10):
            f = sample_map("punctured_exp", seed, {"max_power": 3, "max_decay": 1.5})
            lifted = lift_map(f, ModelPoint.upper(0.1 + 0.9j))
            for _ in range(30):
                # heights capped so the image modulus stays representable
                zeta = ModelPoint.upper(complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.2)))
                lhs = cover_pi(lift_map_eval(lifted, zeta)).value
                rhs = evaluate(f, cover_pi(zeta)).value
                assert abs(lhs - rhs) <= 1e-9

    def test_periodicity(self, rng):
        for seed in range(10):
            f = sample_map("punctured_exp", seed, {"max_power": 3, "max_decay": 1.5})
            m = declared_degree(f)
            lifted = lift_map(f, ModelPoint.upper(1j))
            for _ in range(20):
                zeta = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
                a = lift_map_eval(lifted, ModelPoint.upper(zeta)).value
                b = lift_map_eval(lifted, ModelPoint.upper(zeta + 1.0)).value
                assert abs(b - a - m) <= 1e-9

    def test_composition_lift(self, rng):
        f = parse_map_spec("exp:m=2,c=0.5|power:m=3")
        lifted = lift_map(f, ModelPoint.upper(0.1 + 0.9j))
        assert lifted.degree == 6
        for _ in range(30):
            # heights capped so the degree-6 image stays representable
            zeta = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.5))
            out = lift_map_eval(lifted, ModelPoint.upper(zeta)).value
            assert abs(cover_pi(ModelPoint.upper(out)).value
                       - evaluate(f, cover_pi(ModelPoint.upper(zeta))).value) <= 1e-9
            shifted = lift_map_eval(lifted, ModelPoint.upper(zeta + 1.0)).value
            assert abs(shifted - out - 6) <= 1e-9

    @pytest.mark.parametrize("re", [-50.3, 49.7])
    def test_far_from_anchor(self, re):
        f = PuncturedExp(0.4, 3, 1.2)
        lifted = lift_map(f, ModelPoint.upper(0.2 + 0.6j))
        zeta = ModelPoint.upper(complex(re, 0.02))
        lhs = cover_pi(lift_map_eval(lifted, zeta)).value
        assert abs(lhs - evaluate(f, cover_pi(zeta)).value) <= 1e-9

    def test_deck_offset_shifts_values(self):
        f = PuncturedExp(0.2, 2, 0.3)
        plain = lift_map(f, ModelPoint.upper(1j))
        shifted = lift_map(f, ModelPoint.upper(1j), deck_offset=3)
        zeta = ModelPoint.upper(0.4 + 1.2j)
        delta = lift_map_eval(shifted, zeta).value - lift_map_eval(plain, zeta).value
        assert abs(delta - 3.0) <= 1e-12

    def test_needs_positive_degree(self):
        with pytest.raises(PreconditionError):
            lift_map(Identity(Model.DISC), ModelPoint.upper(1j))


class TestNormalizedLift:
    def test_same_map_zero_displacement(self):
        f = PuncturedPower(0.0, 2)
        lifted, disp = normalized_lift(f, f, ModelPoint.upper(1j))
        assert disp <= 1e-12
        assert lifted.deck_offset == 0

    def test_displacement_matches_punctured_dist(self):
        f = PuncturedExp(0.0, 1, 0.1)
        h = Identity(Model.PUNCTURED_DISC)
        anchor = ModelPoint.upper(1j)
        _, disp = normalized_lift(f, h, anchor)
        a = cover_pi(anchor)
        expected = punctured_dist(evaluate(f, a), a)
        assert abs(disp - expected) <= 1e-9

    def test_rotated_power_against_reference(self):
        theta = 0.05
        f = PuncturedPower(theta, 3)
        h = PuncturedPower(0.0, 3)
        anchor = ModelPoint.upper(0.2 + 0.7j)
        _, disp = normalized_lift(f, h, anchor)
        a = cover_pi(anchor)
        expected = punctured_dist(evaluate(f, a), evaluate(h, a))
        assert abs(disp - expected) <= 1e-9

    def test_degree_mismatch(self):
        with pytest.raises(PreconditionError):
            normalized_lift(PuncturedPower(0.0, 2), PuncturedPower(0.0, 3),
                            ModelPoint.upper(1j))

    def test_reference_must_be_covering(self):
        with pytest.raises(PreconditionError):
            normalized_lift(PuncturedExp(0.0, 2, 0.1), PuncturedExp(0.0, 2, 0.1),
                            ModelPoint.upper(1j))
