import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbound import (
    DomainError,
    HalfDistancePair,
    Model,
    ModelPoint,
    UnsupportedError,
    ValidationError,
    convert,
    density_punctured,
    dist,
    dist_oracle,
    half_sinh_cosh,
)

from conftest import disc_points, random_model_point, upper_points

LN2 = math.log(2.0)
LN3 = math.log(3.0)


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
