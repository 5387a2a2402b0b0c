"""Per-call microbenchmarks over points and maps replayed from a workload's
own samples.

``harvest`` rebuilds the first samples of each campaign config through
``run_sample`` and rebuilds their inputs from the report witnesses: maps by
``map_from_dict``, points by ``ModelPoint.from_dict``. The ``sample_map``
calls the harness makes while doing so are recorded as they are made, with
their family, seed and parameters. Each microbenchmark then times one public
call over those inputs. A witness a sample lacks (or that no longer reads
back) is recorded, and the inputs that need it are left out.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

import hypbound
from hypbound import Mobius, ModelPoint, map_from_dict

SAMPLE_MAP_FAMILIES = ("blaschke", "disc_automorphism", "punctured_exp")
THEOREMS = ("two_point", "two_point_sharp", "fixed_point", "punctured")
KINDS = ("disc_pairs", "points", "mobius", "disc_points", "evaluate", "punctured_pairs",
         "seeds", *(f"sample_map.{f}" for f in SAMPLE_MAP_FAMILIES),
         *(f"check.{t}" for t in THEOREMS))
UNREADABLE = (KeyError, TypeError, ValueError)


def _mobius_maps(d: dict):
    if d.get("variant") == "mobius_automorphism":
        yield Mobius.from_dict(d)
    for g in d.get("maps", ()):
        yield from _mobius_maps(g)


@contextlib.contextmanager
def _recorded_sample_map(calls: list):
    """Record every (family, seed, params) the harness passes to sample_map."""
    from hypbound import harness

    real = getattr(harness, "sample_map", None)
    if real is None:
        yield
        return

    def recording(family, seed, params=None):
        calls.append((family, seed, dict(params) if params is not None else None))
        return real(family, seed, params)

    harness.sample_map = recording
    try:
        yield
    finally:
        harness.sample_map = real


def _rebuild(w: dict, key: str, build, missing: set):
    try:
        return build(w[key])
    except UNREADABLE:
        missing.add(key)
        return None


def _add_sample(inp: dict, theorem: str, w: dict, missing: set) -> None:
    punctured = theorem == "punctured"
    pts = {}
    for k in ("a", "z") if punctured else ("a", "b", "z"):
        p = _rebuild(w, k, ModelPoint.from_dict, missing)
        if p is not None:
            pts[k] = p
    f = _rebuild(w, "f", map_from_dict, missing)
    h = _rebuild(w, "h", map_from_dict, missing) if punctured else None
    have = {k for k, v in (*pts.items(), ("f", f), ("h", h)) if v is not None}
    a, b, z = pts.get("a"), pts.get("b"), pts.get("z")
    inp["points"].extend((p.value, p.model) for p in pts.values())
    inp["evaluate"].extend((g, p) for g in (f, h) if g is not None for p in pts.values())
    if punctured:
        if {"a", "z"} <= have:
            inp["punctured_pairs"].append((z, a))
        if {"f", "h"} <= have:
            inp["punctured_pairs"].extend((f(p), h(p)) for p in pts.values())
        if {"f", "h", "a", "z"} <= have:
            inp["check.punctured"].append((f, h, a, z))
        return
    inp["disc_pairs"].extend((pts[x], pts[y]) for x, y in (("z", "a"), ("a", "b"), ("b", "z"))
                             if x in pts and y in pts)
    inp["disc_points"].extend(pts.values())
    if {"f", "z"} <= have:
        try:
            inp["mobius"].extend((m, z.value) for m in _mobius_maps(w["f"]))
        except UNREADABLE:
            missing.add("f")
    if {"f", "a", "b", "z"} <= have:
        inp[f"check.{theorem}"].append((f, a, b, z))


def harvest(configs, count: int) -> tuple:
    """Inputs for every microbenchmark, from samples 0..count-1 of each
    config, and the sorted witness keys that some sample lacked."""
    inp = {key: [] for key in KINDS}
    missing: set = set()
    calls: list = []
    with _recorded_sample_map(calls):
        for cfg in configs:
            for i in range(count):
                inp["seeds"].append((cfg.seed, i))
                _add_sample(inp, cfg.theorem, hypbound.run_sample(cfg, i).witnesses, missing)
    for call in calls:
        if call[0] in SAMPLE_MAP_FAMILIES:
            inp[f"sample_map.{call[0]}"].append(call)
    return inp, sorted(missing)


def time_per_call(fn, args_list, budget_s: float, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean seconds per ``fn(*args)`` call,
    each round cycling over the inputs for about budget_s / rounds."""
    if not args_list:
        raise ValueError("no inputs to time")
    t = perf_counter()
    for args in args_list:
        fn(*args)
    once = max(perf_counter() - t, 1e-9)
    passes = max(1, round(budget_s / rounds / once))
    per_call = []
    for _ in range(rounds):
        t = perf_counter()
        for _ in range(passes):
            for args in args_list:
                fn(*args)
        per_call.append((perf_counter() - t) / (passes * len(args_list)))
    return statistics.median(per_call)


def run_micro(inp: dict, budget_s: float) -> dict:
    """Per-call times in seconds, keyed by metric name. A metric whose public
    function no longer exists, or that has no inputs, is not timed: it is
    listed under ``skipped`` with the reason."""
    from hypbound import harness

    out, skipped = {}, {}

    def bench(key, owner, attr, args_list, wrap=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            skipped[key] = f"{attr} is gone"
        elif not args_list:
            skipped[key] = "no inputs"
        else:
            out[key] = time_per_call(wrap(fn) if wrap else fn, args_list, budget_s)

    bench("models.dist_disc.ns_per_call", hypbound, "dist", inp["disc_pairs"])
    bench("models.point_new.ns_per_call", hypbound, "ModelPoint", inp["points"])
    bench("mobius.apply_value.ns_per_call", Mobius, "apply_value", inp["mobius"])
    bench("mobius.build_disc_automorphism.us_per_call", hypbound, "build_disc_automorphism",
          [(p, 0.5) for p in inp["disc_points"]])
    for family in SAMPLE_MAP_FAMILIES:
        bench(f"holomaps.sample_map.us_per_call.{family}", hypbound, "sample_map",
              inp[f"sample_map.{family}"])
    bench("holomaps.evaluate.us_per_call", hypbound, "evaluate", inp["evaluate"])
    bench("covering.punctured_dist.us_per_call", hypbound, "punctured_dist",
          inp["punctured_pairs"])
    for theorem in THEOREMS:
        fn = "check_two_point" if theorem.startswith("two_point") else f"check_{theorem}"
        wrap = (lambda f: lambda *a: f(*a, sharp=True)) if theorem == "two_point_sharp" else None
        bench(f"bounds.check.us_per_call.{theorem}", hypbound, fn, inp[f"check.{theorem}"], wrap)
    bench("harness.derive_seeds.us_per_call", harness, "derive_seeds", inp["seeds"])
    return {"times": out, "skipped": skipped}
