"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figures. Sizes, tolerances, and runtime caps
are pinned here and are not to be loosened."""

import math
import time

import numpy as np

from hypbound import (
    CampaignConfig,
    Composition,
    Mobius,
    Model,
    ModelPoint,
    PuncturedExp,
    PuncturedPower,
    apply,
    build_disc_automorphism,
    cover_pi,
    counterexample_demo,
    declared_degree,
    degree_contour,
    dist,
    dist_oracle,
    evaluate,
    half_sinh_cosh,
    halfplane_growth,
    hyperbolic_pull,
    lift_map_eval,
    normalized_lift,
    punctured_dist,
    qlo_bound,
    run_campaign,
    run_sample,
    sample_map,
)

from conftest import random_disc_point, random_model_point, replayed_campaign


def _report(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_metric_against_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for model in (Model.DISC, Model.UPPER_HALF_PLANE, Model.RIGHT_HALF_PLANE):
        checked = 0
        while checked < 1000:
            u = random_model_point(rng, model, radius=2.5)
            v = random_model_point(rng, model, radius=2.5)
            d = dist(u, v)
            if d < 1e-3:
                continue
            rel = abs(dist_oracle(u, v) - d) / d
            worst = max(worst, rel)
            assert rel <= 1e-6
            checked += 1
    gap = abs(dist(ModelPoint.right(1.0), ModelPoint.right(2.0)) - math.log(2.0))
    assert gap <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"3000 oracle pairs, worst rel dev {worst:.2e}; "
               f"log-quotient gap {gap:.1e}; {elapsed:.1f}s")


def test_criterion_02_formula_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    origin = ModelPoint.disc(0.0)
    worst_identity = 0.0
    worst_pair = 0.0
    for _ in range(10_000):
        u = random_disc_point(rng)
        v = random_disc_point(rng)
        pair_uv = half_sinh_cosh(u, v)
        pair_u0 = half_sinh_cosh(u, origin)
        pair_v0 = half_sinh_cosh(v, origin)
        ru = abs(u.value)
        # special cases at the origin
        dev = abs(pair_u0.s - ru / math.sqrt(1 - ru * ru))
        assert dev <= 1e-12 * max(1.0, pair_u0.s)
        dev = abs(pair_u0.c - 1.0 / math.sqrt(1 - ru * ru))
        assert dev <= 1e-12 * max(1.0, pair_u0.c)
        # euclidean gap identities
        gap = abs(u.value - v.value)
        rel1 = abs(gap - pair_uv.s / (pair_u0.c * pair_v0.c)) / max(1.0, gap)
        assert rel1 <= 1e-10
        worst_identity = max(worst_identity, rel1)
        if ru > 1e-3:
            rel2 = abs(gap / ru - pair_uv.s / (pair_u0.s * pair_v0.c)) / max(1.0, gap / ru)
            assert rel2 <= 1e-10
            worst_identity = max(worst_identity, rel2)
        unit = abs(pair_uv.c ** 2 - pair_uv.s ** 2 - 1.0) / max(1.0, pair_uv.c ** 2)
        assert unit <= 1e-12
        worst_pair = max(worst_pair, unit)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"10^4 points, worst identity dev {worst_identity:.2e}, "
               f"worst c^2-s^2 dev {worst_pair:.2e}; {elapsed:.1f}s")


def test_criterion_03_two_point_campaign():
    start = time.perf_counter()
    cfg_plain = CampaignConfig("two_point", "mix", 10_000, 42,
                               family_params={"max_degree": 5})
    cfg_sharp = CampaignConfig("two_point_sharp", "mix", 10_000, 42,
                               family_params={"max_degree": 5})
    report = run_campaign(cfg_plain)
    assert report.violations == []
    assert report.margin_stats["min"] >= -1e-9
    worst_margin = math.inf
    for index in range(cfg_plain.samples):
        plain = run_sample(cfg_plain, index)
        sharp = run_sample(cfg_sharp, index)
        assert plain.margin >= -1e-9 and not plain.violated
        assert sharp.margin >= -1e-9 and not sharp.violated
        assert sharp.rhs <= plain.rhs * (1.0 + 1e-12)
        worst_margin = min(worst_margin, plain.margin, sharp.margin)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"10^4 samples plain+sharp, 0 violations, min margin "
               f"{worst_margin:.3e}, sharp rhs <= plain rhs; {elapsed:.1f}s")


def test_criterion_04_fixed_point_campaign():
    start = time.perf_counter()
    cfg = CampaignConfig("fixed_point", "fixing", 10_000, 43,
                         family_params={"max_degree": 4})
    worst_margin = math.inf
    min_constant = math.inf
    for index in range(cfg.samples):
        r = run_sample(cfg, index)
        assert r.margin >= -1e-9 and not r.violated
        assert r.constant > 1.0
        worst_margin = min(worst_margin, r.margin)
        min_constant = min(min_constant, r.constant)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"10^4 fixed-point samples, 0 violations, min margin "
               f"{worst_margin:.3e}, min constant {min_constant:.3f} > 1; {elapsed:.1f}s")


def test_criterion_05_axis_displacement_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    count = 0
    worst_margin = math.inf
    worst_identity = 0.0
    while count < 10_000:
        p = random_disc_point(rng)
        q = random_disc_point(rng)
        if dist(p, q) < 0.1:
            continue
        h = hyperbolic_pull(p, q)
        c = q  # on the axis by construction
        w = apply(build_disc_automorphism(c, 0.0).inverse(),
                  random_disc_point(rng, radius=3.0))
        r = qlo_bound(w, c, h)
        assert r.margin >= -1e-9
        lhs, rhs = r.witnesses["identity_lhs"], r.witnesses["identity_rhs"]
        rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        assert rel <= 1e-9
        worst_margin = min(worst_margin, r.margin)
        worst_identity = max(worst_identity, rel)
        count += 1
    witness = qlo_bound(ModelPoint.upper(1 + 1j), ModelPoint.upper(1j),
                        Mobius(2.0, 0.0, 0.0, 1.0, Model.UPPER_HALF_PLANE))
    gap = abs(math.sinh(0.5 * witness.lhs) - 0.5)
    assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    _report(5, f"10^4 samples, min margin {worst_margin:.3e}, worst identity "
               f"dev {worst_identity:.2e}; closed witness dev {gap:.1e}; {elapsed:.1f}s")


def test_criterion_06_degree():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 6):
        for f in (PuncturedPower(0.3 * m, m), PuncturedExp(0.1 * m, m, 0.4 * m)):
            result = degree_contour(f)
            assert result.value == m
            assert result.residual < 1e-6
            worst = max(worst, result.residual)
    pairs = [(1, 5), (2, 3), (2, 2), (1, 1), (3, 2), (5, 1)]
    for m1, m2 in pairs:
        f = Composition((PuncturedExp(0.2, m1, 0.5), PuncturedPower(0.7, m2)))
        result = degree_contour(f)
        assert result.value == m1 * m2 == declared_degree(f)
        worst = max(worst, result.residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, f"degrees 1..5 exact for powers and exp maps, products to 6; "
               f"worst residual {worst:.2e}; {elapsed:.1f}s")


def test_criterion_07_lifts():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_cover = 0.0
    worst_period = 0.0
    worst_disp = 0.0
    for seed in range(20):
        f = sample_map("punctured_exp", seed, {"max_power": 3, "max_decay": 1.5})
        m = declared_degree(f)
        anchor = ModelPoint.upper(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.0)))
        h = PuncturedPower(0.0, m)
        lifted, disp = normalized_lift(f, h, anchor)
        a = cover_pi(anchor)
        expected = punctured_dist(evaluate(f, a), evaluate(h, a))
        dev = abs(disp - expected)
        assert dev <= 1e-9
        worst_disp = max(worst_disp, dev)
        for _ in range(100):
            zeta = ModelPoint.upper(complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.2)))
            out = lift_map_eval(lifted, zeta)
            cover_dev = abs(cover_pi(out).value - evaluate(f, cover_pi(zeta)).value)
            assert cover_dev <= 1e-9
            worst_cover = max(worst_cover, cover_dev)
            out_shift = lift_map_eval(lifted, ModelPoint.upper(zeta.value + 1.0))
            period_dev = abs(out_shift.value - out.value - m)
            assert period_dev <= 1e-9
            worst_period = max(worst_period, period_dev)
    elapsed = time.perf_counter() - start
    _report(7, f"20 lifts x 100 points: worst cover dev {worst_cover:.2e}, worst "
               f"period dev {worst_period:.2e}, worst displacement dev {worst_disp:.2e}; "
               f"{elapsed:.1f}s")


def test_criterion_08_punctured_campaign():
    start = time.perf_counter()
    cfg = CampaignConfig("punctured", "exp", 1000, 44,
                         family_params={"max_power": 4, "max_decay": 2.0})
    report = run_campaign(cfg)
    assert report.violations == []
    assert report.margin_stats["min"] >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"10^3 punctured samples, 0 violations, min margin "
               f"{report.margin_stats['min']:.3e}; {elapsed:.1f}s")


def test_criterion_09_halfplane_growth():
    start = time.perf_counter()
    rows = halfplane_growth([10, 100, 1000, 10_000])
    for row in rows:
        assert abs(row["ratio"] / row["n"] - 1.0) <= 2.0 / row["n"]
    assert abs(rows[0]["ratio"] - 9.5786) <= 1e-4
    assert abs(rows[0]["exp_rho_za"] - 10.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, f"ratios {[round(r['ratio'], 4) for r in rows]} inside the "
               f"2/n envelope; {elapsed:.2f}s")


def test_criterion_10_counterexample():
    report = counterexample_demo(pairs=1000, seed=0)
    contraction = report.extras["contraction"]
    assert contraction["pairs"] == 1000 and contraction["failures"] == 0
    v = report.violations[0]
    assert v.violated
    assert v.rhs == 0.0
    assert abs(v.lhs - 2.0 * math.atanh(0.5)) <= 1e-12
    _report(10, f"contraction clean on 1000 pairs; designed violation lhs "
                f"{v.lhs:.4f} vs rhs 0")


def test_criterion_11_determinism():
    cfg = CampaignConfig("two_point", "mix", 500, 42, family_params={"max_degree": 5})
    reports = [run_campaign(cfg) for _ in range(3)]
    texts = [r.to_json(include_timing=False) for r in reports]
    assert texts[0] == texts[1] == texts[2]
    replay = replayed_campaign(cfg)
    assert replay.margin_stats == reports[0].margin_stats
    assert [v.to_dict() for v in replay.violations] == [v.to_dict() for v in reports[0].violations]
    assert replay.to_json(include_timing=False) == texts[0]
    _report(11, "identical JSON across three re-runs and to the report replayed "
                "sample by sample through run_sample")
