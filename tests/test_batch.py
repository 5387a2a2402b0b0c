import numpy as np
import pytest

from hypbound import (CampaignConfig, ModelPoint, batch as batch_module, dist, harness,
                      run_campaign, run_sample, seeding)
from hypbound.batch import TRIES, doubles, integers, outputs, run_block
from hypbound.errors import HypboundError
from hypbound.seeding import BLOCK, ChildSeed, SampleSeeds, _seed_sequence, block_states

from conftest import replayed_campaign

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier
_MOD = 1 << 128


def generator(words):
    return np.random.Generator(np.random.PCG64(ChildSeed(words)))


def zero_first_output(initseq: int) -> np.ndarray:
    """Seed words whose PCG64 gives 0 as its first output: its state then
    has equal 64-bit halves under a rotation of 0."""
    state = (12345 << 64) | 12345
    inc = 2 * initseq + 1
    # the state after the first output is M^2 s + (M (M + 1) + 1) inc
    s = (state - (_MULT * (_MULT + 1) + 1) * inc) * pow(_MULT * _MULT, -1, _MOD) % _MOD
    return np.array([s >> 64, s & (2 ** 64 - 1), initseq >> 64, initseq & (2 ** 64 - 1)],
                    dtype=np.uint64)


class TestPort:
    def test_doubles_match_generator_random(self):
        # 3 blocks of 4 child seeds each, and the crafted children of
        # test_child_seeds_below_two_to_the_32
        children = np.array([0, 1, 5, 2018, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1],
                            dtype=np.uint64)
        lanes = np.concatenate([
            block_states(2018, 0, BLOCK, 4).reshape(-1, 4),
            block_states(7, 2 ** 32, 2 ** 32 + BLOCK, 4).reshape(-1, 4),
            block_states(2 ** 64 + 3, BLOCK, 2 * BLOCK, 4).reshape(-1, 4),
            np.stack(_seed_sequence([children & 0xFFFFFFFF, children >> 32], 4), axis=1),
        ])
        assert len(lanes) >= 10 ** 4
        want = np.array([generator(w).random(34) for w in lanes])
        # a mix kind draws 1 output, an automorphism or an exp map 3, a punctured
        # first pass 5 and a Blaschke product of degree 16 34
        for width in (1, 3, 5, 34):
            assert np.array_equal(doubles(outputs(lanes, width)), want[:, :width])

    @pytest.mark.parametrize("k", [1, 34])
    def test_outputs_match_random_raw_across_the_lane_split(self, k):
        # outputs runs 4096 // k lanes a pass: counts on both sides of one
        # pass and of two, against numpy's own PCG64
        step = 4096 // k
        lanes = np.random.default_rng(11).integers(0, 2 ** 64, (2 * step + 1, 4), np.uint64)
        want = np.array([np.random.PCG64(ChildSeed(w)).random_raw(k) for w in lanes])
        for n in (1, step - 1, step, step + 1, 2 * step, 2 * step + 1):
            got = outputs(lanes[:n], k)
            assert got.shape == (n, k) and np.array_equal(got, want[:n])

    @pytest.mark.parametrize("lo, hi", [(0, 3), (1, 3), (1, 4), (1, 5), (1, 6), (1, 17),
                                        (1, 41), (1, 401), (0, 3 * 2 ** 30)])
    def test_integers_match_generator_integers(self, lo, hi):
        lanes = block_states(5, 0, BLOCK, 4).reshape(-1, 4)
        first = outputs(lanes, 1)[:, 0]
        value, rejected = integers(first, lo, hi)
        want = np.array([generator(w).integers(lo, hi) for w in lanes])
        assert np.array_equal(value[~rejected], want[~rejected])
        # numpy reads a rejected draw's next 32 bits, the high half of the same output
        again, twice = integers(first >> np.uint64(32), lo, hi)
        assert np.array_equal(again[rejected & ~twice], want[rejected & ~twice])
        assert rejected.any() == (hi - lo > 2 ** 20)

    def test_lemire_rejection_is_rescued(self, monkeypatch):
        # a first output of 0 leaves integers(0, 3) a leftover of 0, which
        # numpy rejects: it reads on, and lane 3's mix kind is not the batch's
        lane = next(w for w in map(zero_first_output, range(1, 50))
                    if generator(w).integers(0, 3) != 0)
        assert generator(lane).bit_generator.random_raw() == 0
        assert integers(outputs(lane[None], 1)[:, 0], 0, 3)[1][0]
        real = seeding.block_states

        def crafted(seed, start, stop, streams):
            words = real(seed, start, stop, streams).copy()
            if start <= 3 < stop:
                words[3 - start, 0] = lane
            return words

        cfg = CampaignConfig("two_point", "mix", 8, 5)
        words = crafted(cfg.seed, 0, cfg.samples, 4)
        lhs, rhs, _, unsure = run_block(cfg, words)
        assert unsure.tolist() == [i == 3 for i in range(cfg.samples)]
        want = harness._RUNNERS[cfg.theorem](cfg, 3, SampleSeeds(words[3]))
        assert rhs[3] - lhs[3] != want.margin
        margins = {}
        runner = harness._RUNNERS[cfg.theorem]

        def recorded(cfg, index, seeds):
            report = runner(cfg, index, seeds)
            margins[index] = report.margin
            return report

        monkeypatch.setattr(seeding, "block_states", crafted)
        monkeypatch.setitem(harness._RUNNERS, cfg.theorem, recorded)
        run_campaign(cfg)
        assert margins[3] == want.margin


# every family, deg-16 Blaschke and powers up to 150, over a block edge
FAMILIES = [
    ("two_point", "blaschke", {}),
    ("two_point_sharp", "blaschke", {"max_degree": 16}),
    ("two_point", "automorphism", {}),
    ("two_point", "mix", {}),
    ("two_point", "realpart", {}),
    ("fixed_point", "fixing", {}),
    ("punctured", "exp", {}),
    ("punctured", "exp", {"max_power": 150}),
]
_SHORT = {"max_degree": "deg", "max_power": "m"}
IDS = [f"{t}-{f}" + "".join(f"-{_SHORT[k]}{v}" for k, v in p.items()) for t, f, p in FAMILIES]


def batch(cfg):
    """run_block over a whole campaign, a block at a time."""
    streams = harness._FAMILIES[cfg.family][2]
    blocks = [run_block(cfg, block_states(cfg.seed, lo, min(lo + BLOCK, cfg.samples), streams))
              for lo in range(0, cfg.samples, BLOCK)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


@pytest.mark.parametrize("theorem, family, params", FAMILIES, ids=IDS)
def test_runners_read_only_the_declared_streams(theorem, family, params):
    # a campaign hashes only the child seeds _FAMILIES declares; a runner
    # reading another would raise IndexError from SampleSeeds. numpy's own
    # route, derive_seeds, is the oracle
    cfg = CampaignConfig(theorem, family, 30, 4, family_params=params)
    words = block_states(cfg.seed, 0, cfg.samples, harness._FAMILIES[family][2])
    for i, row in enumerate(words):
        want = harness._run(cfg, i, harness.derive_seeds(cfg.seed, i)).to_dict()
        assert harness._run(cfg, i, SampleSeeds(row)).to_dict() == want
        assert run_sample(cfg, i).to_dict() == want


@pytest.mark.parametrize("theorem, family, params", FAMILIES, ids=IDS)
def test_batch_agrees_with_run_sample(theorem, family, params):
    cfg = CampaignConfig(theorem, family, BLOCK + 3, 9, family_params=params)
    lhs, rhs, err, unsure = batch(cfg)
    reports = [run_sample(cfg, i) for i in range(cfg.samples)]
    want_lhs, want_rhs = np.array([(r.lhs, r.rhs) for r in reports]).T
    sure = ~unsure
    if family == "realpart":
        # every sample violates: the batch leaves them all to the scalar runner
        assert unsure.all() and all(r.violated for r in reports)
    elif "max_power" in params:
        # a high power sends more base points past the drawn attempts, but
        # numpy's complex power decides some lanes of every power
        power = np.array([r.witnesses["f"]["power"] for r in reports])
        assert (sure & (power > 100)).any()
    else:
        assert sure.sum() >= 0.99 * cfg.samples
    assert np.all(np.abs(lhs - want_lhs)[sure] <= 1e-12 * np.abs(want_lhs)[sure])
    assert np.all(np.abs(rhs - want_rhs)[sure] <= 1e-12 * np.abs(want_rhs)[sure])
    scale = np.maximum(np.abs(want_lhs), np.abs(want_rhs))
    off = np.abs((rhs - lhs) - (want_rhs - want_lhs))[sure]
    assert np.all(off <= 1e-12 * scale[sure])
    assert np.all(off <= err[sure])
    violated = np.array([r.violated for r in reports])
    assert np.array_equal((rhs - lhs < -cfg.tolerance)[sure], violated[sure])
    # the campaign's bytes are those of the report assembled from run_sample
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg, reports).to_json(include_timing=False))


def test_undecided_lanes_are_nan():
    # what run_campaign subtracts from an undecided lane is NaN, never inf - inf;
    # here the lanes of a degree past MAX_PAD
    cfg = CampaignConfig("two_point", "blaschke", BLOCK + 3, 2, family_params={"max_degree": 40})
    lhs, rhs, err, unsure = batch(cfg)
    assert unsure.sum() == 212
    for x in (lhs, rhs, err):
        assert np.isnan(x[unsure]).all() and np.isfinite(x[~unsure]).all()


def retried_lanes(cfg, monkeypatch) -> list:
    """The samples whose lanes enter the retry pass of ``batch._retried`` in
    ``batch(cfg)``, found by their stream-1 words."""
    words = block_states(cfg.seed, 0, cfg.samples, harness._FAMILIES[cfg.family][2])
    index = {bytes(row[1]): i for i, row in enumerate(words)}
    retried, real = [], batch_module._retried

    def spy(draw, cap, unsure, *lanes):
        def recorded(tries, flags, short, *rows):
            if tries == TRIES:
                retried.extend(index[bytes(row)] for row in rows[0])
            return draw(tries, flags, short, *rows)

        return real(recorded, cap, unsure, *lanes)

    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "_retried", spy)
        batch(cfg)
    return sorted(retried)


# the uniforms a runner draws when each of its rejection loops accepts its first attempt
_FIRST_ATTEMPTS = {"two_point": 6, "two_point_sharp": 6, "fixed_point": 6, "punctured": 5}
DEFAULTS = [c for c in FAMILIES if c[1] != "realpart" and "max_power" not in c[2]]


@pytest.mark.parametrize("theorem, family, params", DEFAULTS,
                         ids=[i for i, c in zip(IDS, FAMILIES) if c in DEFAULTS])
def test_only_lanes_past_their_first_attempt_are_retried(theorem, family, params,
                                                         monkeypatch):
    # the retry pass takes the lanes whose scalar runner draws a second attempt
    # of some rejection loop, and on the default families no other: none lies
    # near a threshold. The punctured z is refused more often, below |z| = 1e-6
    cfg = CampaignConfig(theorem, family, BLOCK + 3, 9, family_params=params)
    retried = retried_lanes(cfg, monkeypatch)
    draws, uniforms = [], harness._uniforms

    def counted(rng):
        uniform = uniforms(rng)
        return lambda *bounds: draws.append(1) or uniform(*bounds)

    monkeypatch.setattr(harness, "_uniforms", counted)
    words = block_states(cfg.seed, 0, cfg.samples, harness._FAMILIES[family][2])
    past = []
    for i, row in enumerate(words):
        draws.clear()
        harness._run(cfg, i, SampleSeeds(row))
        if len(draws) > _FIRST_ATTEMPTS[theorem]:
            past.append(i)
    assert retried == past
    assert 0 < len(past) <= (0.03 if theorem == "punctured" else 0.01) * cfg.samples


@pytest.mark.parametrize("theorem, family, seed, params, settings, most", [
    ("punctured", "exp", 5, {"max_power": 40}, {}, 0),
    ("punctured", "exp", 9, {"max_power": 150}, {}, 0),
    ("two_point", "mix", 3, {}, {"min_sep": 2.5}, 0),
] + [(t, f, 9, p, {}, 0) for t, f, p in DEFAULTS])
def test_undecided_lane_counts(theorem, family, seed, params, settings, most):
    # the lanes left to the scalar runner over a block and a bit; the first
    # three were 121, 491 and 190 with 4 attempts drawn for every lane, and
    # 2, 152 and 17 with no pass past TRIES attempts. fixing at max_radius
    # 14.5 and Blaschke degrees past the padding are counted where their
    # rescue is tested
    cfg = CampaignConfig(theorem, family, BLOCK + 3, seed, family_params=params, **settings)
    assert batch(cfg)[3].sum() <= most


@pytest.mark.parametrize("theorem, family, seed, params, settings", [
    ("punctured", "exp", 9, {"max_power": 150}, {}),
    ("two_point", "mix", 3, {}, {"min_sep": 2.5}),
])
def test_retried_blocks_match_the_scalar_runner(theorem, family, seed, params, settings,
                                                monkeypatch):
    cfg = CampaignConfig(theorem, family, BLOCK + 3, seed, family_params=params, **settings)
    assert len(retried_lanes(cfg, monkeypatch)) > 100
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))


@pytest.mark.parametrize("theorem, family, params", DEFAULTS,
                         ids=[i for i, c in zip(IDS, FAMILIES) if c in DEFAULTS])
def test_blocks_without_retries_match_the_scalar_runner(theorem, family, params, monkeypatch):
    cfg = CampaignConfig(theorem, family, 20, 2, family_params=params)
    assert retried_lanes(cfg, monkeypatch) == []
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_mix_lanes_of_each_kind_match_the_scalar_runner(samples):
    # in so few lanes some kind of map has none to draw or evaluate
    for seed in range(6):
        cfg = CampaignConfig("two_point", "mix", samples, seed)
        assert (run_campaign(cfg).to_json(include_timing=False)
                == replayed_campaign(cfg).to_json(include_timing=False))


def test_high_power_campaign_raises_no_warning():
    # pytest turns warnings into errors: no lane's margin may warn
    cfg = CampaignConfig("punctured", "exp", 600, 0, family_params={"max_power": 150})
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))


@pytest.mark.parametrize("theorem, family", [("two_point", "mix"), ("fixed_point", "fixing")])
def test_error_bound_far_out(theorem, family):
    # near the radius limit disc distances lose digits, and the batch's
    # error bound grows with them
    cfg = CampaignConfig(theorem, family, 300, 4, max_radius=14.5)
    lhs, rhs, err, unsure = batch(cfg)
    reports = [run_sample(cfg, i) for i in range(cfg.samples)]
    margins = np.array([r.margin for r in reports])
    assert np.all(np.abs((rhs - lhs) - margins)[~unsure] <= err[~unsure])
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg, reports).to_json(include_timing=False))


def test_rejection_loop_past_the_drawn_attempts_is_rescued(monkeypatch):
    # at min_sep 2.5 within radius 3, b often needs more than the TRIES
    # attempts of the first retry pass, and the passes after it draw them, up
    # to the scalar cap; harness.dist is called once per attempt
    cfg = CampaignConfig("two_point", "mix", 300, 3, min_sep=2.5)
    *_, unsure = batch(cfg)
    attempts = []
    real = harness.dist
    monkeypatch.setattr(harness, "dist", lambda u, v: attempts.append(1) or real(u, v))
    long = []
    for i in range(cfg.samples):
        attempts.clear()
        run_sample(cfg, i)
        if len(attempts) > TRIES:
            long.append(i)
    monkeypatch.undo()
    assert long and not unsure.any()
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))


@pytest.mark.parametrize("cfg", [
    # min_sep at the largest value the config accepts: samples 53 and 59 run out
    CampaignConfig("two_point", "mix", 100, 3, min_sep=3.0),
    CampaignConfig("punctured", "exp", 200, 1, family_params={"max_power": 400}),
], ids=["separated", "punctured-base-point"])
def test_rejection_loop_past_the_scalar_cap_fails_as_the_scalar_runner(cfg):
    # the batch draws no attempt past the cap of a scalar loop: a lane whose
    # loop needs more is left to the scalar runner, and the campaign fails
    # with the error of the first such sample
    *_, unsure = batch(cfg)
    failed = {}
    for i in range(cfg.samples):
        try:
            run_sample(cfg, i)
        except HypboundError as exc:
            failed[i] = exc
    assert failed and unsure[list(failed)].all()
    first = failed[min(failed)]
    with pytest.raises(type(first)) as raised:
        run_campaign(cfg)
    assert str(raised.value) == str(first)


def test_degree_past_the_padding_is_rescued():
    # over a block edge: the lanes left to the scalar runner are those past it, and no other
    cfg = CampaignConfig("two_point", "blaschke", BLOCK + 3, 2, family_params={"max_degree": 40})
    *_, unsure = batch(cfg)
    degrees = np.array([len(run_sample(cfg, i).witnesses["f"]["zeros"])
                        for i in range(cfg.samples)])
    assert (degrees > 32).any()
    assert np.array_equal(unsure, degrees > 32)
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))


def test_margin_at_the_tolerance_is_rescued(monkeypatch):
    # a decided lane whose batch margin lies within its error of -tolerance
    # may be a violation or not: the campaign re-runs it in its block, before
    # the re-runs of the margin_stats ranks, and reports the scalar verdict
    cfg = CampaignConfig("two_point", "mix", 200, 7)
    shifted, runs = [], []

    def block(cfg, words):
        lhs, rhs, err, unsure = run_block(cfg, words)
        i = int(np.flatnonzero(~unsure)[0])
        lhs[i] = rhs[i] + cfg.tolerance - 0.5 * err[i]  # margin -tolerance + err / 2
        shifted.append(i)
        return lhs, rhs, err, unsure

    ranks, runner = harness._rank_lanes, harness._RUNNERS[cfg.theorem]
    monkeypatch.setattr("hypbound.batch.run_block", block)
    monkeypatch.setattr(harness, "_rank_lanes", lambda *a: runs.append("ranks") or ranks(*a))
    monkeypatch.setitem(harness._RUNNERS, cfg.theorem,
                        lambda cfg, i, seeds: runs.append(i) or runner(cfg, i, seeds))
    report = run_campaign(cfg)
    assert shifted and runs.index(shifted[0]) < runs.index("ranks")
    assert report.to_json(include_timing=False) == replayed_campaign(cfg).to_json(False)


@pytest.mark.parametrize("max_radius, undecided", [(10.0, 0), (14.5, 66)])
def test_fixed_point_drift_is_decided_near_the_boundary(max_radius, undecided, monkeypatch):
    # the drift d(f(b), b) of a map built to fix b is rounding noise below
    # 32 eps / (1 - |b|^2), far from its 1e-10 refusal even at the radius
    # limit, so the drift test leaves no lane to the scalar runner; at 14.5
    # the disc-distance quotient still leaves 66, whose images lie so far out
    # that the error model lets the scalar round their t up to 1
    cfg = CampaignConfig("fixed_point", "fixing", BLOCK + 3, 5, max_radius=max_radius)
    *_, unsure = batch(cfg)
    assert unsure.sum() <= undecided
    noise = []
    check = harness.check_fixed_point

    def recorded(f, a, b, z, tolerance):
        drift = dist(f(b), b)
        noise.append(drift * (1.0 - abs(b.value) ** 2) / np.finfo(float).eps)
        return check(f, a, b, z, tolerance)

    monkeypatch.setattr(harness, "check_fixed_point", recorded)
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))
    assert len(noise) >= cfg.samples and max(noise) < 32.0


def test_separation_at_min_sep_is_rescued():
    # min_sep equal to the distance of a sample's first attempt at b: the
    # scalar runner accepts it, the batch may not, and leaves it unsure
    cfg = CampaignConfig("two_point", "mix", 50, 8)
    w = run_sample(cfg, 5).witnesses
    a, b = (ModelPoint.from_dict(w[k]) for k in "ab")
    cfg = CampaignConfig("two_point", "mix", 50, 8, min_sep=dist(b, a))
    *_, unsure = batch(cfg)
    assert unsure[5]
    assert (run_campaign(cfg).to_json(include_timing=False)
            == replayed_campaign(cfg).to_json(include_timing=False))
