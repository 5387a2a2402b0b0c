"""Campaign samples a block at a time: the sample runners of ``harness``
over arrays of lanes, one lane per sample, on a numpy port of PCG64.

Each lane draws what its scalar runner draws, bit for bit, from the words
``seeding.block_states`` gives it, and no more: a rejection loop draws one
attempt, a second pass draws ``TRIES`` for the lanes whose first fails or
is near its threshold, and further passes draw four times as many, up to
the attempt cap of the scalar loop, for the lanes still without a passing
attempt and with no test near; a ``mix`` lane draws only the map of its
kind. A runner returns each lane's lhs and rhs and marks the lanes it
cannot decide for certain: those past the draws it made (the cap of a
rejection loop, where the scalar runner fails, a Lemire rejection or a
degree above ``MAX_PAD``) or near the threshold of a test or a refusal.
``harness.run_campaign`` re-runs those through the scalar runner.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bounds import MIN_SEPARATION
from .harness import PUNCTURED_ATTEMPTS, SEPARATION_ATTEMPTS
from .models import BOUNDARY_MARGIN, TO_UPPER, Model, _adjugate, _mapply

SLACK = 1e-9  # relative: a test this near its threshold is left to the scalar runner
TRIES = 16  # attempts of a rejection loop drawn for a lane whose first fails
MAX_PAD = 32  # Blaschke zeros per lane

_U32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier


@functools.cache
def _jumps(k: int) -> list:
    """A PCG64 seeded with (s, inc) is at A_j s + B_j inc mod 2^128 after
    output j + 1. For j < k, the limbs of A_j and of B_j: high and low 64
    bits, and the low word's 32-bit halves."""
    mod, cols = 1 << 128, []
    a, b = _MULT * _MULT % mod, (_MULT * (_MULT + 1) + 1) % mod  # seeding steps twice
    for _ in range(k):
        cols.append((a, b))
        a, b = a * _MULT % mod, (b * _MULT + 1) % mod
    limbs = (np.array([[v >> 64, v % 2 ** 64] for v in c], dtype=np.uint64) for c in zip(*cols))
    return [(hi, lo, lo & _U32, lo >> _S32) for hi, lo in (c.T[:, :, None] for c in limbs)]


def _mul(xh, xl, c):
    """(xh, xl) times the limbs c, mod 2^128, as (high, low) words."""
    ch, cl, c0, c1 = c
    x0, x1 = xl & _U32, xl >> _S32
    p01, p10 = x0 * c1, x1 * c0
    carry = ((x0 * c0) >> _S32) + (p01 & _U32) + (p10 & _U32)
    hi = x1 * c1 + (p01 >> _S32) + (p10 >> _S32) + (carry >> _S32) + xh * cl + xl * ch
    return hi, xl * cl


def outputs(words: np.ndarray, k: int) -> np.ndarray:
    """The first k outputs (lanes, k) of each lane's PCG64, seeded from its
    row of ``words``, the four words ``block_states`` gives a child seed; as
    (k, lanes) transposed, so that each limb product pairs arrays of one shape.
    The lanes run ``4096 // k`` at a time, so each (k, lanes) temporary holds
    32 KB at most and a pass reuses freed heap pages: 500 lanes at k = 34 took
    about 250 minor page faults a call in one pass, 140 at ``8192 // k``, 0 here."""
    a, b = _jumps(k)
    out = np.empty((len(words), k), np.uint64)
    step = max(1, 4096 // k)
    for start in range(0, len(words), step):
        w = words[start:start + step].T
        sh, sl = _mul(w[0], w[1], a)
        ih, il = _mul((w[2] << np.uint64(1)) | (w[3] >> np.uint64(63)),
                      (w[3] << np.uint64(1)) | np.uint64(1), b)
        lo = sl + il
        hi = sh + ih + (lo < sl)
        x, r = hi ^ lo, hi >> np.uint64(58)
        out[start:start + step] = ((x >> r) | (x << ((np.uint64(64) - r) & np.uint64(63)))).T
    return out


def doubles(out: np.ndarray) -> np.ndarray:
    """``Generator.random()`` from each output."""
    return (out >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def integers(out: np.ndarray, lo: int, hi: int) -> tuple:
    """``Generator.integers(lo, hi)``, 2 <= hi - lo < 2^32, from the first
    output of each lane, by Lemire's method on its low 32 bits; and the lanes
    where numpy rejects that draw and reads on."""
    span = hi - lo
    m = (out & _U32) * np.uint64(span)
    return lo + (m >> _S32).astype(np.int64), (m & _U32) < (2 ** 32 - span) % span


def _draw_integer(out, lo: int, hi: int, unsure) -> tuple:
    """``integers(lo, hi)`` as a sampler draws it, and the outputs left: one
    value draws nothing, and a range past 32 bits is left to the scalar runner."""
    if hi - lo == 1:
        return np.full(len(out), lo), out
    value, rejected = integers(out[:, 0], lo, min(hi, lo + 2 ** 32 - 1))
    unsure |= rejected | (hi - lo >= 2 ** 32)
    return value, out[:, 1:]


def _flag(unsure, mask) -> None:
    unsure |= mask.reshape(len(unsure), -1).any(axis=1)


def _error(*points):
    """A bound, with room to spare, on the error of a distance between the
    points: it grows like eps / (1 - |w|)^2 at the largest |w|."""
    r = functools.reduce(np.maximum, map(np.abs, points))
    return 256.0 * np.finfo(float).eps / (1.0 - r) ** 2


def _near(x, threshold: float, err=0.0):
    """Where x is within SLACK of the threshold, or within err, or is NaN."""
    return ~(np.abs(x - threshold) > np.maximum(SLACK * threshold, err))


def _refused(w, punctured: bool = False):
    """Where ModelPoint may refuse w: near or past the BOUNDARY_MARGIN of
    the disc or of the punctured disc."""
    r = np.abs(w)
    out = ~(r < (1.0 - BOUNDARY_MARGIN) * (1.0 - SLACK))
    return out | ~(r > BOUNDARY_MARGIN * (1.0 + SLACK)) if punctured else out


def _first(passed, near, unsure, short):
    """The first of each lane's attempts (axis 1) that passes its test; a
    lane is short when none passes, and unsure when a test up to that one,
    or any test of a short lane, is near."""
    none, t = ~passed.any(axis=1), passed.argmax(axis=1)
    short |= none
    read = np.arange(passed.shape[1]) <= np.where(none, passed.shape[1], t)[:, None]
    unsure |= (near & read).any(axis=1)
    return t


def _take(a, index):
    return a[np.arange(len(a))[:, None], index if index.ndim == 2 else index[:, None]]


def _dist(u, v, unsure):
    """``models._dist_disc``; np.arctanh is not math.atanh to the bit."""
    den = np.abs(1.0 - u * v.conj())
    t = np.abs(u - v) / den
    # _dist_disc refuses t >= 1, and the exact t of interior points is below 1: each
    # engine rounds |u - v| by 2 eps |u - v|, den by 3 eps + 2 eps den and the
    # quotient by eps, 13 eps / den in all. As _error assumes, the engines place each
    # point within e/2 of each other, e = _error(u, v): their exact distances differ by
    # e at most, and 1 - tanh(x + e/2) >= (1 - tanh x) e^-e; in the plane, by
    # e (1 - |w|^2) / 4, so their den by den e/2. The scalar can refuse only where
    # this t has 1 - t <= 13 eps (1 + e^e / (1 - e/2)) / den, or where e >= 2.
    e, eps = _error(u, v), np.finfo(float).eps
    _flag(unsure, ~(t < 1.0 - 13.0 * eps * (1.0 + np.exp(e) / np.maximum(1.0 - e / 2.0, 0.0))
                    / den))
    return 2.0 * np.arctanh(t)


def _sample_disc_points(radius: float, u):
    """``harness._sample_disc_point`` from consecutive pairs of doubles."""
    return np.tanh(radius * u[:, 0::2] / 2.0) * np.exp(1j * (math.tau * u[:, 1::2]))


def _disc_point(u):
    # holomaps._disc_point(0.95, u0, u1) from consecutive pairs of doubles
    return 0.95 * np.sqrt(u[:, 0::2]) * np.exp(1j * (math.tau * u[:, 1::2]))


def _automorphism(words):
    """``sample_map("disc_automorphism", ...)``, by ``build_disc_automorphism``."""
    u = doubles(outputs(words, 3))
    center, rot = _disc_point(u[:, :2]), np.exp(1j * (math.tau * u[:, 2:]))
    return rot, -rot * center, -center.conj(), 1.0


def _blaschke(words, max_degree: int, unsure):
    """``sample_map("blaschke", ...)``: (rotation, zeros, mask), the zeros
    padded to MAX_PAD at most, with a mask of those drawn."""
    pad = min(max_degree, MAX_PAD)
    degree, out = _draw_integer(outputs(words, (max_degree > 1) + 2 * pad + 1), 1,
                                max_degree + 1, unsure)
    unsure |= degree > pad
    u = doubles(out)
    rotation = math.tau * _take(u, 2 * np.minimum(degree, pad))
    return rotation, _disc_point(u[:, :2 * pad]), np.arange(pad) < degree[:, None]


def _apply_blaschke(b, w):
    """The Blaschke products b at the points w (lanes, P): one division per point
    of the products of the numerators and of the denominators, 1 in a padded slot."""
    rotation, zeros, mask = b
    num, den = np.exp(1j * rotation), 1.0
    for z, on in zip(zeros.T[:, :, None], mask.T[:, :, None]):
        num = num * np.where(on, w - z, 1.0)
        den = den * np.where(on, 1.0 - z.conj() * w, 1.0)
    return num / den


def _disc_images(cfg, words, points, unsure):
    """The images of points (lanes, P) under each lane's ``harness._draw_disc_map``."""
    if cfg.family == "automorphism":
        return _mapply(_automorphism(words[:, 0]), points)
    deg = cfg.params["max_degree"]
    if cfg.family == "blaschke":
        return _apply_blaschke(_blaschke(words[:, 0], deg, unsure), points)
    # mix: the lanes drawing a Blaschke product, an automorphism, or the automorphism then
    # a Blaschke product; each draws and evaluates the map of its kind alone
    kind, _ = _draw_integer(outputs(words[:, 0], 1), 0, 3, unsure)
    b, m, mb = (kind == k for k in range(3))
    drawn_b, drawn_mb = np.zeros(b.sum(), dtype=bool), np.zeros(mb.sum(), dtype=bool)
    images = np.empty_like(points)
    images[b] = _apply_blaschke(_blaschke(words[b, 2], deg, drawn_b), points[b])
    images[m] = _mapply(_automorphism(words[m, 2]), points[m])
    moved = _mapply(_automorphism(words[mb, 2]), points[mb])
    images[mb] = _apply_blaschke(_blaschke(words[mb, 3], max(1, deg - 1), drawn_mb), moved)
    unsure[b] |= drawn_b
    unsure[mb] |= drawn_mb
    return images


def _separated(points, other, min_sep: float, unsure, short):
    """``harness._separated`` over the attempts (axis 1): the index of the
    first at least min_sep from ``other``."""
    _flag(unsure, _refused(points))
    d = _dist(points, other, unsure)
    return _first(d >= min_sep, _near(d, min_sep, _error(points, other)), unsure, short)


def _retried(draw, cap: int, unsure, *lanes):
    """``draw(tries, unsure, short, *lanes)``, a sampler whose rejection loops
    draw ``tries`` attempts each, over the rows of ``lanes``: one attempt on
    every lane, then TRIES on those whose first attempt fails or is near a
    threshold, then four times as many, up to the cap of the scalar loops,
    on those still short of a passing attempt and neither near nor refused.
    A lane short at the cap fails in the scalar runner as well."""
    flags, short = np.zeros_like(unsure), np.zeros_like(unsure)
    got = draw(1, flags, short, *lanes)
    again, tries = flags | short, TRIES
    while again.any():
        rows = np.flatnonzero(again)
        f, s = np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
        for x, redrawn in zip(got, draw(tries, f, s, *(lane[rows] for lane in lanes))):
            x[rows] = redrawn
        flags[rows], short[rows] = f, s
        again, tries = short & ~flags & (tries < cap), min(4 * tries, cap)
    unsure |= flags | short
    return got


def _disc_sample(cfg, tries, unsure, short, words):
    """The disc runners' points, from stream 1: one, then another separated
    from it, then z."""
    half = cfg.max_radius / 2.0
    u = doubles(outputs(words, 4 + 2 * tries))
    first = _sample_disc_points(half, u[:, :2])
    attempts = _sample_disc_points(half, u[:, 2:2 + 2 * tries])
    t = _separated(attempts, first, cfg.min_sep, unsure, short)
    return first, _take(attempts, t), _sample_disc_points(half, _take(u, 2 * t[:, None] + [4, 5]))


def _distances(unsure, points, images, first: list, second: list) -> list:
    """The refusals of ModelPoint on the points a, b, z and their images, and
    the distances between columns ``first`` and ``second`` of (a, b, z, f(a),
    f(b), f(z)), in one pass; the first pair is (a, b), which
    ``bounds._separation`` refuses below MIN_SEPARATION."""
    _flag(unsure, _refused(points) | _refused(images))
    w = np.concatenate([points, images], axis=1)
    d = _dist(w[:, first], w[:, second], unsure)
    _flag(unsure, ~(d[:, 0] > MIN_SEPARATION * (1.0 + SLACK)))
    return [d[:, k:k + 1] for k in range(len(first))]


def _two_point(cfg, words, unsure):
    a, b, z = _retried(functools.partial(_disc_sample, cfg), SEPARATION_ATTEMPTS, unsure,
                       words[:, 1])
    points = np.concatenate([a, b, z], axis=1)
    images = _disc_images(cfg, words, points, unsure)
    # d(a, b), d(z, a), d(b, z), then d(f(z), z), d(f(a), a), d(f(b), b)
    dab, dza, dbz, lhs, dfa, dfb = _distances(unsure, points, images, [0, 2, 1, 5, 3, 4],
                                              [1, 0, 2, 2, 0, 1])
    top = np.exp(dza + dab + dbz)
    constant = top / (2.0 * np.sinh(0.5 * dab) if cfg.theorem == "two_point_sharp" else dab)
    return lhs, constant * (dfa + dfb), constant, (points, images)


def _fixed_point(cfg, words, unsure):
    b, a, z = _retried(functools.partial(_disc_sample, cfg), SEPARATION_ATTEMPTS, unsure,
                       words[:, 1])
    # w B(w), conjugated by the automorphism sigma exchanging 0 and b
    deg = max(1, cfg.params["max_degree"] - 1)
    rotation, zeros, mask = _blaschke(words[:, 0], deg, unsure)
    fixing_zero = (rotation, np.concatenate([np.zeros_like(zeros[:, :1]), zeros], axis=1),
                   np.concatenate([np.ones_like(mask[:, :1]), mask], axis=1))
    sigma = (1.0, -b, -b.conj(), 1.0)  # build_disc_automorphism(b, 0.0)
    _flag(unsure, ~(np.abs(1.0 - b * b.conj()) > 1e-12 * (1.0 + SLACK)))  # Mobius's refusal
    points = np.concatenate([a, b, z], axis=1)
    images = _mapply(_adjugate(sigma),
                     _apply_blaschke(fixing_zero, _mapply(sigma, points)))
    # d(a, b), d(f(b), b), d(a, z), d(z, b), then d(f(z), z), d(f(a), a)
    dab, drift, daz, dzb, lhs, dfa = _distances(unsure, points, images, [0, 4, 0, 2, 5, 3],
                                                [1, 1, 2, 1, 2, 0])
    # check_fixed_point refuses a drift d(f(b), b) above 1e-10; exactly, f(b) = b. With
    # s^2 = 1 - |b|^2, sigma(b) rounds to a few eps / s^2, w B(w) does not enlarge it and
    # sigma^-1 scales it back by s^2, so both paths' drifts, about 2 |f(b) - b| / s^2, lie
    # below 32 eps / s^2 and differ by less (at most 5.4 in 4000 scalar samples at 14.5).
    noise = 32.0 * np.finfo(float).eps / (1.0 - np.abs(b) ** 2)
    _flag(unsure, ~(drift < 1e-10 * (1.0 - SLACK) - noise))
    constant = np.exp(daz + dzb) / (4.0 * np.sinh(0.5 * dab))
    return lhs, constant * dfa, constant, (points, images)


def _principal(w):
    # covering._principal_value; np.angle and np.log are not cmath.phase and math.log to the bit
    return np.angle(w) / math.tau + 1j * (-np.log(np.abs(w)) / math.tau)


def _punctured_dist(w, v):
    """``covering.punctured_dist``, the nearer deck translate; np.arcsinh is not math.asinh."""
    u, v = _principal(w), _principal(v)
    k = np.floor(v.real - u.real)
    lower, upper = ((2.0 * np.arcsinh(np.abs(x - v) / (2.0 * np.sqrt(x.imag * v.imag))))
                    for x in (u + k, u + (k + 1.0)))
    return np.where(lower <= upper, lower, upper)


def _punctured_points(radius, tries, unsure, short, words, spin, power, decay):
    """From stream 1: h's rotation, then a's attempts two doubles each, then z's two each."""

    def f(w):
        return spin * w ** power * np.exp(decay * (w - 1.0))

    u = doubles(outputs(words, 1 + 4 * tries))
    lo, hi = math.log(0.05), math.log(0.95)
    attempts = (np.exp(lo + (hi - lo) * u[:, 1:1 + 2 * tries:2])
                * np.exp(1j * (math.tau * u[:, 2:2 + 2 * tries:2])))
    r = np.abs(f(attempts))
    passed = (r > BOUNDARY_MARGIN) & (r < 1.0 - BOUNDARY_MARGIN)
    near = _near(r, BOUNDARY_MARGIN) | _near(r, 1.0 - BOUNDARY_MARGIN)
    t = _first(passed, near, unsure, short)
    a = _take(attempts, t)
    lift = _principal(a)
    w = _sample_disc_points(radius, _take(u, 2 * t[:, None] + 3 + np.arange(2 * tries)))
    # covering._cover; np.exp on one point would cost the scalar runner a numpy call
    attempts = np.exp(2j * math.pi * (lift.real + lift.imag * _mapply(TO_UPPER[Model.DISC], w)))
    r, image = np.abs(attempts), np.abs(f(attempts))
    passed = (1e-6 < r) & (r < 1.0 - 1e-8) & (image > 1e-12)
    near = _near(r, 1e-6) | _near(r, 1.0 - 1e-8) | _near(image, 1e-12)
    return u[:, :1], a, _take(attempts, _first(passed, near, unsure, short))


def _punctured(cfg, words, unsure):
    max_power = cfg.params["max_power"]
    power, out = _draw_integer(outputs(words[:, 0], (max_power > 1) + 2), 1, max_power + 1,
                               unsure)
    u = doubles(out)
    spin, decay = np.exp(1j * (math.tau * u[:, :1])), cfg.params["max_decay"] * u[:, 1:]
    turn, a, z = _retried(functools.partial(_punctured_points, min(4.0, cfg.max_radius)),
                          PUNCTURED_ATTEMPTS, unsure, words[:, 1], spin, power[:, None], decay)
    points = np.concatenate([a, z], axis=1)
    raised = points ** power[:, None]  # once for f and h
    fa, fz = (spin * raised * np.exp(decay * (points - 1.0))).T[:, :, None]
    ha, hz = (np.exp(1j * (math.tau * turn)) * raised).T[:, :, None]
    images = np.concatenate([fa, fz, ha, hz], axis=1)
    _flag(unsure, _refused(images, punctured=True))
    # d*(z, a), d*(f(z), h(z)), d*(f(a), h(a))
    dza, lhs, dfa = _punctured_dist(np.concatenate([z, fz, fa], axis=1),
                                    np.concatenate([a, hz, ha], axis=1)).T[:, :, None]
    r = np.abs(a)
    constant = (8.0 * (-1.0 / (r * np.log(r))) * np.exp(dza)) ** 3
    return lhs, constant * dfa, constant, (points, images)


_RUNNERS = {"two_point": _two_point, "two_point_sharp": _two_point,
            "fixed_point": _fixed_point, "punctured": _punctured}


def run_block(cfg, words: np.ndarray) -> tuple:
    """The samples whose seed words ``words`` holds, as ``block_states``
    gives them, as one batch: each lane's lhs and rhs, a bound on the error
    of its margin rhs - lhs, and the lanes the batch cannot decide for
    certain, whose lhs, rhs and error are NaN."""
    unsure = np.zeros(len(words), dtype=bool)
    if cfg.family == "realpart":  # rhs = 0, lhs > 0.2: all go to the scalar runner
        return (np.full(len(words), np.nan),) * 3 + (~unsure,)
    with np.errstate(all="ignore"):
        lhs, rhs, constant, seen = _RUNNERS[cfg.theorem](cfg, words, unsure)
        lhs, rhs, constant = lhs[:, 0], rhs[:, 0], constant[:, 0]
        scale = np.maximum(np.maximum(1.0, constant), np.maximum(np.abs(lhs), np.abs(rhs)))
        err = np.maximum(SLACK, _error(*(np.abs(x).max(axis=1) for x in seen))) * scale
        unsure |= ~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(err))
        lhs, rhs, err = (np.where(unsure, np.nan, x) for x in (lhs, rhs, err))
    return lhs, rhs, err, unsure
