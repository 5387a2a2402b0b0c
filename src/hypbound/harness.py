"""Reproducible verification campaigns over the bound checks, plus the
half-plane growth, counterexample, and convergence-transfer demos.

Determinism contract: every sample is rebuilt from (seed, index) through a
fixed seed-splitting rule, and reports aggregate in index order, so a
campaign's output is byte-identical across re-runs and any sample replays
through ``run_sample``. The rule is ``derive_seeds``, through numpy itself;
campaigns and ``run_sample`` read the same words a block of samples at a
time from ``seeding.block_states``, and the per-theorem runners that take
them are the scalar reference. A campaign runs its samples a block at a time
through ``batch``, which draws what the runners draw, and re-runs through a
runner each sample the batch cannot decide for certain and each that a
reported statistic may read: a report's bytes are those of the runners.

numpy loads where something is drawn or batched, not on import: in
``derive_seeds``, in ``holomaps.default_rng`` (the runners, ``sample_map`` and
the demos), in ``run_sample`` and in ``run_campaign``. Configs, checks, maps
and distances never load it.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from itertools import chain
from typing import Callable, Optional

from .bounds import check_fixed_point, check_punctured, check_two_point, constant_two_point
from .config import _FAMILIES, REAL_BASE, CampaignConfig, _check_int
from .covering import _cover, principal_lift
from .errors import HypboundError, NumericalError, UsageError, ValidationError
from .holomaps import (
    BlaschkeProduct,
    Composition,
    HalfPlaneTranslate,
    HoloMap,
    PuncturedPower,
    RealPartMap,
    default_rng,
    evaluate,
    sample_map,
)
from .mobius import build_disc_automorphism
from .models import _DISC, TO_UPPER, Frozen, ModelPoint, _mapply, dist
from .report import BoundReport, dumps, fmt17

SCHEMA_VERSION = 1

# attempts of a rejection loop before its sample fails: _separated's, and the
# punctured base and nearby points'. The batch draws no attempt past them
SEPARATION_ATTEMPTS = 200
PUNCTURED_ATTEMPTS = 500


class CampaignReport(Frozen):
    __slots__ = __match_args__ = _fields = ("config", "violations", "margin_stats",
                                            "wall_time_s", "extras")

    def __init__(self, config: CampaignConfig, violations: list, margin_stats: dict,
                 wall_time_s: float, extras: Optional[dict] = None) -> None:
        self._init(config, violations, margin_stats, wall_time_s, extras)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "violations": [r.to_dict() for r in self.violations],
            "margin_stats": {k: fmt17(v) for k, v in self.margin_stats.items()},
        }
        if self.extras is not None:
            out["extras"] = self.extras
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return dumps(self.to_dict(include_timing))


def derive_seeds(seed: int, index: int) -> list:
    """Four child seeds for sample ``index``: the documented splitting rule
    is numpy's SeedSequence keyed on the entropy pair (seed, index)."""
    import numpy as np

    state = np.random.SeedSequence((seed, index)).generate_state(4, np.uint64)
    return [int(s) for s in state]


def _uniforms(rng) -> Callable[..., float]:
    """``rng.uniform(lo, hi)`` of the numpy Generator ``rng``, in order and bit
    for bit, read from blocks of ``rng.random(16)``, which yield what 16 scalar
    ``rng.random()`` calls would."""
    draw = chain.from_iterable(iter(lambda: rng.random(16).tolist(), None)).__next__
    return lambda lo=0.0, hi=1.0: lo + (hi - lo) * draw()


def _sample_disc_point(uniform: Callable[..., float], radius: float) -> ModelPoint:
    # uniform hyperbolic radius up to ``radius`` about the origin
    r = uniform(0.0, radius)
    phi = uniform(0.0, math.tau)
    return ModelPoint.disc(math.tanh(r / 2.0) * cmath.exp(1j * phi))


def _separated(draw: Callable[[], ModelPoint], other: ModelPoint, min_sep: float) -> ModelPoint:
    for _ in range(SEPARATION_ATTEMPTS):
        p = draw()
        if dist(p, other) >= min_sep:
            return p
    raise UsageError("min_sep is unattainable within the sampling radius")


def _draw_disc_map(cfg: CampaignConfig, seeds) -> HoloMap:
    if cfg.family == "blaschke":
        return sample_map("blaschke", seeds[0], cfg.params)
    if cfg.family == "automorphism":
        return sample_map("disc_automorphism", seeds[0])
    if cfg.family == "realpart":
        return RealPartMap()
    # mix: one of Blaschke, automorphism, or their composition
    kind = int(default_rng(seeds[0]).integers(0, 3))
    if kind == 0:
        return sample_map("blaschke", seeds[2], cfg.params)
    if kind == 1:
        return sample_map("disc_automorphism", seeds[2])
    return Composition((
        sample_map("disc_automorphism", seeds[2]),
        sample_map("blaschke", seeds[3], {"max_degree": max(1, cfg.params["max_degree"] - 1)}),
    ))


def _run_two_point(cfg: CampaignConfig, index: int, seeds) -> BoundReport:
    uniform = _uniforms(default_rng(seeds[1]))
    half = cfg.max_radius / 2.0  # pairwise separations stay within max_radius
    f = _draw_disc_map(cfg, seeds)
    if cfg.family == "realpart":
        # real base points are fixed by Re, so the right side collapses to 0
        a = ModelPoint.disc(uniform(-REAL_BASE, REAL_BASE))
        b = _separated(lambda: ModelPoint.disc(uniform(-REAL_BASE, REAL_BASE)), a, cfg.min_sep)
        for _ in range(200):
            z = _sample_disc_point(uniform, half)
            if abs(z.value.imag) >= 0.1:
                break
        else:
            raise UsageError("max_radius is too small to sample z with |Im z| >= 0.1")
    else:
        a = _sample_disc_point(uniform, half)
        b = _separated(lambda: _sample_disc_point(uniform, half), a, cfg.min_sep)
        z = _sample_disc_point(uniform, half)
    return check_two_point(f, a, b, z, sharp=cfg.theorem == "two_point_sharp",
                           tolerance=cfg.tolerance)


def _run_fixed_point(cfg: CampaignConfig, index: int, seeds) -> BoundReport:
    uniform = _uniforms(default_rng(seeds[1]))
    half = cfg.max_radius / 2.0
    b = _sample_disc_point(uniform, half)
    a = _separated(lambda: _sample_disc_point(uniform, half), b, cfg.min_sep)
    z = _sample_disc_point(uniform, half)
    # conjugate w * B(w) (a Blaschke product with an extra zero at 0, hence
    # fixing 0) by the automorphism exchanging 0 and b
    deg = max(1, cfg.params["max_degree"] - 1)
    inner = sample_map("blaschke", seeds[0], {"max_degree": deg})
    fixing_zero = BlaschkeProduct(inner.rotation, (0.0,) + inner.zeros)
    sigma = build_disc_automorphism(b, 0.0)
    f = Composition((sigma, fixing_zero, sigma.inverse()))
    return check_fixed_point(f, a, b, z, cfg.tolerance)


def _punctured_base_point(uniform: Callable[..., float], f: HoloMap) -> ModelPoint:
    # log-uniform modulus in [0.05, 0.95]: the density stays well below 1e3.
    # A base point is redrawn exactly when ModelPoint refuses f(a) (high
    # powers crush small moduli); the reference e^{it} z^m has
    # |h(a)| >= |f(a)|, so h(a) needs no check.
    for _ in range(PUNCTURED_ATTEMPTS):
        r = math.exp(uniform(math.log(0.05), math.log(0.95)))
        a = r * cmath.exp(1j * uniform(0.0, math.tau))
        try:
            ModelPoint.punctured(f.value_at(a))
        except ValidationError:
            continue
        return ModelPoint.punctured(a)
    raise NumericalError("could not sample a base point with a representable image")


def _punctured_nearby_point(uniform: Callable[..., float], a: ModelPoint,
                            radius: float, f: HoloMap) -> ModelPoint:
    # transport a disc sample to the hyperbolic ball around the principal
    # lift of a, then project; rejection keeps the point and its image under
    # the drawn map representable (high powers crush small moduli)
    lift = principal_lift(a).value
    for _ in range(PUNCTURED_ATTEMPTS):
        r = uniform(0.0, radius)
        w = math.tanh(r / 2.0) * cmath.exp(1j * uniform(0.0, math.tau))
        z = _cover(lift.real + lift.imag * _mapply(TO_UPPER[_DISC], w))
        if 1e-6 < abs(z) < 1.0 - 1e-8 and abs(f.value_at(z)) > 1e-12:
            return ModelPoint.punctured(z)
    raise NumericalError("could not sample a representable nearby point")


def _run_punctured(cfg: CampaignConfig, index: int, seeds) -> BoundReport:
    uniform = _uniforms(default_rng(seeds[1]))
    f = sample_map("punctured_exp", seeds[0], cfg.params)
    h = PuncturedPower(uniform(0.0, math.tau), f.power)
    a = _punctured_base_point(uniform, f)
    z = _punctured_nearby_point(uniform, a, min(4.0, cfg.max_radius), f)
    return check_punctured(f, h, a, z, cfg.tolerance)


# runner(cfg, index, seeds): the report of sample index, drawn from SampleSeeds,
# or from derive_seeds, which seeds the same generators; one per config.THEOREMS
_RUNNERS: dict[str, Callable[..., BoundReport]] = {
    "two_point": _run_two_point,
    "two_point_sharp": _run_two_point,
    "fixed_point": _run_fixed_point,
    "punctured": _run_punctured,
}


def _run(cfg: CampaignConfig, index: int, seeds) -> BoundReport:
    """Sample ``index`` through its runner; an error names the sample."""
    try:
        return _RUNNERS[cfg.theorem](cfg, index, seeds).for_sample(cfg.seed, index)
    except HypboundError as exc:
        raise type(exc)(f"sample {index} of seed {cfg.seed}: {exc}") from exc


# seed blocks that run_sample keeps: replays mostly walk one block of one seed
REPLAY_BLOCKS = 4


@functools.lru_cache(maxsize=REPLAY_BLOCKS)
def _block_words(seed: int, lo: int, streams: int):
    """The read-only ``block_states`` words of the whole seeding block from
    sample ``lo`` on; a pure function, so a cached block is the fresh one."""
    from .seeding import BLOCK, block_states

    return block_states(seed, lo, lo + BLOCK, streams)


def _sample_seeds(cfg: CampaignConfig, index: int):
    """The ``SampleSeeds`` of sample ``index``, read from its block's words."""
    from .seeding import BLOCK, SampleSeeds

    lo = index - index % BLOCK
    return SampleSeeds(_block_words(cfg.seed, lo, _FAMILIES[cfg.family][2])[index - lo])


def run_sample(cfg: CampaignConfig, index: int) -> BoundReport:
    """Rebuild and re-check the single sample ``index`` of a campaign; the
    scalar reference for the batched ``run_campaign``. ``index`` is an int >= 0."""
    _check_int("index", index, 0)
    return _run(cfg, index, _sample_seeds(cfg, index))


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Evaluate every sample of the configured family against the configured
    bound, in index order. Deterministic in (seed, samples). Only violating
    samples are reported, as ``run_sample`` reports them.

    Samples run ``seeding.BLOCK`` at a time through ``batch.run_block``. A
    lane the batch cannot decide for certain, or whose margin may pass the
    tolerance, is re-run through its scalar runner, in index order; so is
    every lane that may hold one of the ranks ``margin_stats`` reads, so the
    statistics are those of the scalar margins."""
    start = time.perf_counter()
    # numpy loads here, with the batch, so that import hypbound does not load it
    import numpy as np

    from .batch import run_block
    from .seeding import BLOCK, SampleSeeds, block_states

    streams = _FAMILIES[cfg.family][2]
    margins, errors = np.empty(cfg.samples), np.empty(cfg.samples)
    violations = {}

    def rescue(i: int, seeds) -> None:
        report = _run(cfg, i, seeds)
        margins[i], errors[i] = report.margin, 0.0
        if report.violated:
            violations[i] = report

    for lo in range(0, cfg.samples, BLOCK):
        words = block_states(cfg.seed, lo, min(lo + BLOCK, cfg.samples), streams)
        lhs, rhs, err, unsure = run_block(cfg, words)
        block = slice(lo, lo + len(words))
        margins[block], errors[block] = rhs - lhs, err
        for j in np.flatnonzero(unsure | ~(margins[block] + cfg.tolerance > err)).tolist():
            rescue(lo + j, SampleSeeds(words[j]))
    for i in _rank_lanes(margins, errors):
        rescue(i, SampleSeeds(words[i - lo]) if i >= lo else _sample_seeds(cfg, i))
    return CampaignReport(cfg, [violations[i] for i in sorted(violations)],
                          margin_stats(np.sort(margins)), time.perf_counter() - start)


def margin_stats(s) -> dict:
    """The min, median, p99 and max of finite margins, read from their sorted
    array ``s``; p99 is interpolated as ``np.percentile`` does, to the bit."""
    n = len(s)
    v = (n - 1) * 0.99
    j = math.floor(v)
    a, b, lo, hi, first, last = s[[j, min(j + 1, n - 1), (n - 1) // 2, n // 2, 0, -1]].tolist()
    t = v - j
    return {"min": first, "median": lo if n % 2 else (lo + hi) / 2.0,
            "p99": a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t), "max": last}


def _rank_lanes(margins, errors) -> list:
    """The inexact lanes (error above 0) of the arrays ``margins`` and
    ``errors`` that may hold a rank the statistics read: min, max, median and
    p99. The margin of lane i lies within errors[i] of margins[i], so the
    margin at rank r lies between the r-th smallest lower and upper ends; a
    lane whose range misses that interval is on the same side of it exactly
    as in the batch."""
    import numpy as np

    n = len(margins)
    p99 = math.floor((n - 1) * 0.99)  # np.percentile interpolates from here to the next
    # sorted in Python: np.unique would import numpy.ma into every campaign
    ranks = sorted({min(r, n - 1) for r in (0, (n - 1) // 2, n // 2, p99, p99 + 1, n - 1)})
    lower, upper = margins - errors, margins + errors
    lo, hi = np.sort(lower)[ranks], np.sort(upper)[ranks]
    near = ((upper[:, None] >= lo) & (lower[:, None] <= hi)).any(axis=1)
    return [int(i) for i in np.flatnonzero(near & (errors > 0.0))]


def halfplane_growth(n_values) -> list:
    """For the translations w -> w + 1/n^2 of the right half-plane, tabulate
    the displacement at 1/n against the displacement at 1, whose quotient
    grows like exp of the distance between the evaluation points."""
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise UsageError("no n values: nothing to tabulate")
    rows = []
    anchor = ModelPoint.right(1.0)
    for n in n_values:
        if n < 2:
            raise UsageError("n must be at least 2")
        f = HalfPlaneTranslate(1.0 / n ** 2)
        zn = ModelPoint.right(1.0 / n)
        disp_z = dist(evaluate(f, zn), zn)
        disp_a = dist(evaluate(f, anchor), anchor)
        if disp_a == 0.0:
            raise NumericalError(f"at n={n}, 1 + 1/n^2 rounds to 1: the anchor does not move")
        ratio = disp_z / disp_a
        growth = math.exp(dist(zn, anchor))
        if abs(ratio / n - 1.0) > 2.0 / n:
            raise NumericalError(f"growth ratio at n={n} left its envelope")
        rows.append({"n": n, "disp_z": disp_z, "disp_a": disp_a,
                     "ratio": ratio, "exp_rho_za": growth})
    return rows


def counterexample_demo(pairs: int = 1000, seed: int = 0) -> CampaignReport:
    """Two findings about w -> Re(w): sampled pairs confirm it contracts the
    hyperbolic metric, yet with real base points the two-point bound fails
    (the right side is zero while the left side is not)."""
    start = time.perf_counter()
    f = RealPartMap()
    if pairs < 1:
        raise UsageError("pairs must be >= 1")
    cfg = CampaignConfig("two_point", "realpart", samples=1, seed=seed)  # refuses a bad seed
    uniform = _uniforms(default_rng(derive_seeds(seed, 0)[0]))
    failures = 0
    min_margin = math.inf
    for _ in range(pairs):
        u = _sample_disc_point(uniform, 3.0)
        v = _sample_disc_point(uniform, 3.0)
        margin = dist(u, v) - dist(evaluate(f, u), evaluate(f, v))
        min_margin = min(min_margin, margin)
        if margin < -1e-9:
            failures += 1
    violation = check_two_point(
        f, ModelPoint.disc(0.3), ModelPoint.disc(-0.3), ModelPoint.disc(0.5j))
    stats = {"min": violation.margin, "median": violation.margin,
             "p99": violation.margin, "max": violation.margin}
    extras = {
        "contraction": {
            "pairs": pairs,
            "failures": failures,
            "min_margin": fmt17(min_margin),
        },
        "expected_violation": violation.violated,
    }
    return CampaignReport(cfg, [violation], stats, time.perf_counter() - start, extras)


def _parse_budget(spec: str) -> Callable[[int], float]:
    """Summable displacement budgets: inv_square, inv_cube, inv_power:p=...
    (p finite and > 1). Non-summable specs are refused."""
    name, _, rest = spec.partition(":")
    if name == "inv_square":
        p = 2.0
    elif name == "inv_cube":
        p = 3.0
    elif name in ("inv_linear", "harmonic"):
        raise UsageError(f"budget {spec!r} is not summable")
    elif name == "inv_power":
        try:
            p = float(dict(kv.split("=") for kv in rest.split(","))["p"])
        except (KeyError, ValueError) as exc:
            raise UsageError(f"malformed budget spec {spec!r}") from exc
        if not 1.0 < p < math.inf:
            raise UsageError(f"budget {spec!r} needs a finite exponent p > 1")
    else:
        raise UsageError(f"unknown budget spec {spec!r}")
    return lambda n: float(n) ** -p


def convergence_demo(budget: str, z: ModelPoint, rows: int = 20, seed: int = 0) -> list:
    """Build near-identity maps whose summed displacement at the base points
    0.3 and -0.3 stays within a summable budget, and tabulate the transferred
    bound at z: each row's displacement at z is at most the two-point
    constant times the budget, so the series at z converges as well."""
    budget_fn = _parse_budget(budget)
    if rows < 1:
        raise UsageError("rows must be >= 1")
    _check_int("seed", seed, 0)
    a, b = ModelPoint.disc(0.3), ModelPoint.disc(-0.3)
    constant = constant_two_point(z, a, b)
    out = []
    partial = 0.0
    for n in range(1, rows + 1):
        target = eps = budget_fn(n)
        if not target > 0.0:
            raise UsageError(f"budget {budget!r} underflows to {target!r} at row {n}")
        for _ in range(80):
            f = sample_map("near_identity", derive_seeds(seed, n)[0], {"eps": eps})
            measured = dist(evaluate(f, a), a) + dist(evaluate(f, b), b)
            if measured <= target:
                break
            eps /= 2.0
        else:
            raise NumericalError("could not fit the displacement budget")
        disp_z = dist(evaluate(f, z), z)
        bound_z = constant * target
        if disp_z > constant * measured + 1e-9:
            raise NumericalError("two-point transfer failed on a row")
        partial += bound_z
        out.append({"n": n, "budget": target, "measured_ab": measured,
                    "bound_z": bound_z, "disp_z": disp_z,
                    "partial_sum_bound": partial})
    return out


def write_rows_csv(rows: list, path: str) -> None:
    """Write a list of uniform dict rows as CSV; floats keep 17 digits."""
    import csv  # here, not on import: only the CLI's CSV tables use it

    if not rows:
        raise UsageError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([fmt17(v) if isinstance(v, float) else v
                             for v in row.values()])
