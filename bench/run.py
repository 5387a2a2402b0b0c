#!/usr/bin/env python3
"""Closed-loop campaign benchmark for hypbound.

One client in one thread runs campaigns back to back through the public
``run_campaign``; campaign k of a run uses seed ``--seed + k``. Every
campaign's output is checked. See bench/README.md for the workloads, the
metrics and which layer metric should move which end-to-end metric.

    python3 bench/run.py --workload disc_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
loop and the microbenchmarks and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record of the run, with its
context, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# Each workload cycles through its campaign configs: (theorem, CLI family spec).
WORKLOADS = {
    "disc_mix": (("two_point", "mix:deg=5"),
                 ("two_point_sharp", "blaschke:deg=16"),
                 ("fixed_point", "fixing:deg=4")),
    "punctured_exp": (("punctured", "exp:m=4,c=2"),),
    "violation_heavy": (("two_point", "realpart"),),
}
ALL_VIOLATED = {"violation_heavy"}  # every sample violates; elsewhere none does

SAMPLES = 500  # samples per campaign
REF_SEED = 2018
REF_SAMPLES = 200
REL_TOL = 1e-12
HARVEST = 40  # samples per config replayed as microbenchmark inputs
# The CLI campaign is 4 campaigns long, so interpreter start-up, whose cost
# swings most on a shared machine, is not most of cli_verify_ms.
CLI_CAMPAIGNS = 4


def pct(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 when nothing was measured
    (the run then has failures and is not correct)."""
    import numpy

    if not len(values):
        return 0.0
    s = numpy.sort(numpy.asarray(values, dtype=float))
    return float(s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))])


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value, once there are three."""
    s = sorted(values)
    return mean(s[1:-1] if len(s) >= 3 else s)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_python(args: list, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def make_config(theorem: str, spec: str, samples: int, seed: int):
    import hypbound
    from hypbound.cli import parse_family_spec

    family, params = parse_family_spec(spec)
    return hypbound.CampaignConfig(theorem, family, samples, seed, family_params=params)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def context() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Probes:
    """Fresh-interpreter measurements, spread over the loop so that a slow
    spell of the machine reaches them as it reaches the campaigns."""

    SETUP = ("import time\n"
             "t0 = time.perf_counter()\n"
             "import hypbound\n"
             "hypbound.CampaignConfig({theorem!r}, {family!r}, {samples}, {seed}, "
             "family_params={params!r})\n"
             "print(repr(time.perf_counter() - t0))\n")

    def __init__(self, workload: str, samples: int, seed: int, problems: list) -> None:
        self.theorem, self.spec = WORKLOADS[workload][0]
        self.cfg = make_config(self.theorem, self.spec, samples * CLI_CAMPAIGNS, seed)
        self.expect_rc = 1 if workload in ALL_VIOLATED else 0
        self.problems = problems
        self.setup_s: list = []
        self.cli_verify_ms: list = []
        self.calibration_ms: list = []
        self._expected_report = None

    def setup(self) -> None:
        c = self.cfg
        code = self.SETUP.format(theorem=c.theorem, family=c.family, samples=c.samples,
                                 seed=c.seed, params=dict(c.family_params))
        proc = run_python(["-c", code])
        if proc.returncode != 0:
            self.problems.append(f"setup interpreter failed: {proc.stderr.strip()[-300:]}")
            return
        self.setup_s.append(float(proc.stdout.strip().splitlines()[-1]))

    def cli_verify(self) -> None:
        import hypbound

        c = self.cfg
        out = OUT / "cli-verify.json"
        t = perf_counter()
        proc = run_python(["-m", "hypbound", "verify", "--theorem", self.theorem,
                           "--family", self.spec, "--samples", str(c.samples),
                           "--seed", str(c.seed), "--out", str(out)])
        elapsed = perf_counter() - t
        if proc.returncode != self.expect_rc:
            self.problems.append(f"cli verify exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
            return
        if self._expected_report is None:
            self._expected_report = hypbound.run_campaign(c).to_dict(include_timing=False)
        got = json.loads(out.read_text())
        got.pop("wall_time_s", None)
        if got != self._expected_report:
            self.problems.append("cli verify report differs from run_campaign")
            return
        self.cli_verify_ms.append(elapsed * 1e3)

    def run(self) -> None:
        self.setup()
        self.cli_verify()
        # machine speed, ungated: a fixed pure-Python loop
        t = perf_counter()
        sum(i * i for i in range(100_000))
        self.calibration_ms.append((perf_counter() - t) * 1e3)


class Loop:
    """A closed loop of campaigns: the next starts when the last has been
    checked. With ``replay`` every index of each campaign is rebuilt through
    ``run_sample`` and its margins checked against the campaign's."""

    def __init__(self, workload: str, samples: int, seed: int, replay: bool,
                 tracer=None) -> None:
        self.workload = workload
        self.samples = samples
        self.seed = seed
        self.replay = replay
        self.tracer = tracer
        self.campaign_ms: list = []
        self.report_ms: list = []
        self.replay_s = 0.0  # run_sample time, summed over every replay
        self.replays = 0
        self.replay_p99_us: list = []  # one per replayed campaign
        self.samples_done = 0
        self.campaign_s = 0.0  # run_campaign time of the campaigns that passed
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list = []
        self.first_json = None
        self._next = 0

    def _check(self, cfg, report) -> list:
        import hypbound

        problems = []
        want = cfg.samples if self.workload in ALL_VIOLATED else 0
        if len(report.violations) != want:
            problems.append(f"seed {cfg.seed}: {len(report.violations)} violations, "
                            f"expected {want}")
        if not self.replay:
            return problems
        margins, violated, times = [], 0, []
        for i in range(cfg.samples):
            t = perf_counter()
            r = hypbound.run_sample(cfg, i)
            times.append(perf_counter() - t)
            margins.append(r.margin)
            violated += r.violated
        self.replay_s += sum(times)
        self.replays += len(times)
        self.replay_p99_us.append(pct(times, 0.99) * 1e6)
        stats = report.margin_stats
        if (min(margins), max(margins)) != (stats["min"], stats["max"]):
            problems.append(f"seed {cfg.seed}: replayed margins span "
                            f"[{min(margins)!r}, {max(margins)!r}], campaign "
                            f"[{stats['min']!r}, {stats['max']!r}]")
        if violated != len(report.violations):
            problems.append(f"seed {cfg.seed}: {violated} replayed violations, "
                            f"campaign has {len(report.violations)}")
        return problems

    def campaign(self, theorem: str, spec: str):
        """Run, time and check one campaign; returns its run time in seconds,
        or None when it raised or failed its check."""
        import hypbound

        cfg = make_config(theorem, spec, self.samples, self.seed + self._next)
        self._next += 1
        self.attempted += 1
        tr = self.tracer
        try:
            if tr is not None:
                span = tr.open_campaign(cfg.min_sep)
            t0 = perf_counter()
            try:
                report = hypbound.run_campaign(cfg)
            finally:
                if tr is not None:
                    tr.close(span)
            t1 = perf_counter()
            text = report.to_json(include_timing=False)
            t2 = perf_counter()
            problems = self._check(cfg, report)
        except Exception as exc:  # a raising campaign is counted; the run goes on
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            self.problems.append(f"seed {cfg.seed} {spec}: {traceback.format_exc()}")
            return None
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        if self.first_json is None:
            self.first_json = (cfg, text)
        self.samples_done += cfg.samples
        self.campaign_s += t1 - t0
        self.campaign_ms.append((t2 - t0) * 1e3)
        self.report_ms.append((t2 - t1) * 1e3)
        return t1 - t0

    def round(self) -> float:
        """One campaign per config; returns the wall time of the round."""
        t = perf_counter()
        for theorem, spec in WORKLOADS[self.workload]:
            self.campaign(theorem, spec)
        return perf_counter() - t

    def run(self, seconds: float, probes=None, n_probes: int = 0) -> float:
        """Run whole rounds for ``seconds`` of loop time, with ``n_probes``
        probe calls spread evenly over it. Returns the loop time."""
        elapsed = 0.0
        done_probes = 0
        while elapsed < seconds or done_probes < n_probes:
            if done_probes < n_probes and elapsed >= done_probes * seconds / n_probes:
                probes.run()
                done_probes += 1
            else:
                elapsed += self.round()
        return elapsed

    @property
    def samples_per_s(self) -> float:
        """Samples over run_campaign time, summed over the run: unlike a
        median of per-campaign rates, it does not jump between the fast and
        slow spells of a shared machine."""
        return self.samples_done / self.campaign_s if self.campaign_s else 0.0


def end_checks(workload: str, loop: Loop) -> list:
    """Re-run the loop's first campaign (its JSON must repeat byte for byte)
    and the fixed reference campaigns (their margin_stats must match the
    recorded values)."""
    import hypbound

    problems = []
    if loop.first_json is None:
        return ["no campaign completed"]
    cfg, text = loop.first_json
    ref = json.loads(REFERENCE.read_text())
    try:
        if hypbound.run_campaign(cfg).to_json(include_timing=False) != text:
            problems.append(f"campaign seed {cfg.seed} is not byte-identical on re-run")
        for theorem, spec in WORKLOADS[workload]:
            key = f"{theorem} {spec}"
            stats = hypbound.run_campaign(
                make_config(theorem, spec, ref["samples"], ref["seed"])).margin_stats
            for field, want in ref["margin_stats"][key].items():
                got = stats.get(field)
                if got is None or abs(got - want) > REL_TOL * abs(want):
                    problems.append(f"{key}: margin_stats[{field!r}] = {got!r}, "
                                    f"reference {want!r}")
    except Exception:
        problems.append(f"end check raised: {traceback.format_exc()}")
    return problems


def record_reference() -> None:
    import hypbound

    stats = {}
    for configs in WORKLOADS.values():
        for theorem, spec in configs:
            cfg = make_config(theorem, spec, REF_SAMPLES, REF_SEED)
            stats[f"{theorem} {spec}"] = hypbound.run_campaign(cfg).margin_stats
    REFERENCE.write_text(json.dumps({"seed": REF_SEED, "samples": REF_SAMPLES,
                                     "margin_stats": stats}, indent=2) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe_count(seconds: float) -> int:
    """Fresh-interpreter and CLI measurements per run: 9 at 30 s, 1 at 1 s."""
    return max(1, round(0.3 * seconds))


def warm_up(args) -> None:
    """One uncounted round, so imports and first-call costs stay out."""
    Loop(args.workload, SAMPLES, args.seed, replay=False).round()


def end_to_end(args) -> tuple:
    OUT.mkdir(exist_ok=True)
    problems: list = []
    probes = Probes(args.workload, SAMPLES, args.seed, problems)
    probes.setup()  # untimed: compiles bytecode and warms the file cache
    probes.setup_s.clear()
    warm_up(args)
    loop = Loop(args.workload, SAMPLES, args.seed, replay=True)
    loop_s = loop.run(args.seconds, probes, probe_count(args.seconds))
    problems += loop.problems + end_checks(args.workload, loop)
    metrics = {
        "samples_per_s": metric(loop.samples_per_s, "1/s"),
        "campaign_p90_ms": metric(pct(loop.campaign_ms, 0.9), "ms"),
        "report_ms": metric(mean(loop.report_ms), "ms"),
        "replay_mean_us": metric(loop.replay_s / loop.replays * 1e6 if loop.replays else 0.0,
                                 "us"),
        "replay_p99_us": metric(median(loop.replay_p99_us), "us"),
        "cli_verify_ms": metric(trimmed_mean(probes.cli_verify_ms), "ms"),
        "setup_s": metric(median(probes.setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_frac": metric(1.0 - loop.failed / loop.attempted, "ratio"),
    }
    detail = {
        "loop_s": loop_s,
        "campaigns": len(loop.campaign_ms),
        "samples_per_campaign": SAMPLES,
        "replays": loop.replays,
        "setup_s_runs": probes.setup_s,
        "cli_verify_ms_runs": probes.cli_verify_ms,
        "calibration_ms_runs": probes.calibration_ms,
        "failed_frac": loop.failed / loop.attempted,
        "errors": dict(loop.errors),
    }
    return loop, metrics, detail, problems


def micro_inputs(workload: str, seed: int) -> tuple:
    """Microbenchmark inputs: this workload's samples first; an input kind
    it lacks comes from the first other workload that has it. Returns the
    inputs, the workload each borrowed kind came from, and the witness keys
    some harvested sample lacked. A kind no workload has stays empty."""
    import micro

    harvests = {}

    def harvest(w):
        if w not in harvests:
            harvests[w] = micro.harvest(
                [make_config(t, s, SAMPLES, seed) for t, s in WORKLOADS[w]], HARVEST)
        return harvests[w][0]

    inp = dict(harvest(workload))
    borrowed = {}
    for key, value in inp.items():
        if not value:
            donor = next((w for w in WORKLOADS if harvest(w)[key]), None)
            if donor is not None:
                borrowed[key] = donor
                inp[key] = harvest(donor)[key]
    missing = sorted({k for _, lacked in harvests.values() for k in lacked})
    return inp, borrowed, missing


def layered(args) -> tuple:
    import hypbound
    import micro
    from hypbound import cli
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    warm_up(args)
    # untraced and traced rounds alternate over the same seeds, so the
    # overhead compares like with like under the same machine load
    plain = Loop(args.workload, SAMPLES, args.seed, replay=False)
    tracer = Tracer()
    loop = Loop(args.workload, SAMPLES, args.seed, replay=False, tracer=tracer)
    elapsed = 0.0
    while elapsed < args.seconds * 0.6:
        elapsed += plain.round()
        tracer.install()
        try:
            elapsed += loop.round()
        finally:
            tracer.uninstall()
    problems = plain.problems + loop.problems + end_checks(args.workload, loop)
    agg = tracer.aggregate()
    tracer.write_spans(OUT / f"spans-{args.workload}.csv.gz")
    n = max(loop.samples_done, 1)  # 0 only when every traced campaign failed

    def calls(name):
        return agg[name]["calls"] / n

    def self_us(prefix):  # a span name, or a layer: every span name under it
        return sum(v["self_s"] for k, v in agg.items()
                   if k == prefix or k.startswith(prefix + ".")) / n * 1e6

    inp, borrowed, missing = micro_inputs(args.workload, args.seed)
    budget = args.seconds * 0.01
    mic = micro.run_micro(inp, budget)

    violating = next(w for w in WORKLOADS if w in ALL_VIOLATED)
    theorem, spec = WORKLOADS[violating][0]
    report = hypbound.run_campaign(make_config(theorem, spec, SAMPLES, args.seed))
    to_json_us = 0.0
    if report.violations:
        to_json_us = (micro.time_per_call(report.to_json, [(False,)], budget * 3)
                      / len(report.violations) * 1e6)
    else:
        problems.append(f"{violating} campaign seed {args.seed} has no violations")

    theorem, spec = WORKLOADS[args.workload][0]
    verify = ["verify", "--theorem", theorem, "--family", spec, "--samples",
              str(SAMPLES), "--seed", str(args.seed), "--out", str(OUT / "cli-main.json")]
    expect_rc = 1 if args.workload in ALL_VIOLATED else 0
    main_ms, startup_ms = [], []
    for _ in range(probe_count(args.seconds)):
        t = perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(verify)
        main_ms.append((perf_counter() - t) * 1e3)
        if rc != expect_rc:
            problems.append(f"cli.main verify returned {rc}")
        t = perf_counter()
        proc = run_python(["-m", "hypbound", "dist", "disc", "0", "0.5"])
        startup_ms.append((perf_counter() - t) * 1e3)
        if proc.returncode != 0 or abs(float(proc.stdout) - math.log(3.0)) > 1e-15:
            problems.append(f"hypbound dist printed {proc.stdout.strip()!r}")

    sep = tracer.sep_calls
    metrics = {
        "models.dist.calls_per_sample": metric(calls("models.dist"), "calls/sample"),
        "models.dist.self_us_per_sample": metric(self_us("models.dist"), "us/sample"),
        "mobius.apply_value.calls_per_sample": metric(calls("mobius.apply_value"), "calls/sample"),
        "mobius.self_us_per_sample": metric(self_us("mobius"), "us/sample"),
        "holomaps.evaluate.calls_per_sample": metric(calls("holomaps.evaluate"), "calls/sample"),
        "holomaps.self_us_per_sample": metric(self_us("holomaps"), "us/sample"),
        "covering.punctured_dist.calls_per_sample":
            metric(calls("covering.punctured_dist"), "calls/sample"),
        "covering.self_us_per_sample": metric(self_us("covering"), "us/sample"),
        "bounds.self_us_per_sample": metric(self_us("bounds"), "us/sample"),
        "harness.derive_seeds.calls_per_sample":
            metric(calls("harness.derive_seeds"), "calls/sample"),
        "harness.self_us_per_sample": metric(self_us("harness"), "us/sample"),
        "harness.accept_ratio": metric(tracer.sep_accepted / sep if sep else 0.0, "ratio"),
        "harness.to_json.us_per_violation": metric(to_json_us, "us"),
        "cli.main_ms": metric(trimmed_mean(main_ms), "ms"),
        "cli.startup_ms": metric(trimmed_mean(startup_ms), "ms"),
        "trace.overhead_frac": metric(plain.samples_per_s / loop.samples_per_s - 1.0, "ratio"),
    }
    for name in [*mic["times"], *mic["skipped"]]:
        ns = name.endswith(".ns_per_call")
        metrics[name] = metric(mic["times"].get(name, 0.0) * (1e9 if ns else 1e6),
                               "ns" if ns else "us")
    detail = {
        "samples_traced": n,
        "samples_untraced": plain.samples_done,
        "spans": len(tracer.name),
        "absent_targets": tracer.absent,
        "missing_witnesses": missing,
        "borrowed_inputs": borrowed,
        "untimed": mic["skipped"],
        "separation_checks": sep,
        "span_totals": agg,
        "failed_frac": (plain.failed + loop.failed) / (plain.attempted + loop.attempted),
        "errors": dict(plain.errors + loop.errors),
    }
    attempted = plain.attempted + loop.attempted
    failed = plain.failed + loop.failed
    return attempted, failed, metrics, detail, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite bench/reference.json from the current code and exit")
    args = p.parse_args(argv)
    if not (SRC / "hypbound" / "__init__.py").is_file():
        print(f"error: no hypbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        p.error("need --workload, a nonnegative --seed and positive --seconds")
    ctx = context()
    if args.trace:
        attempted, failed, metrics, detail, problems = layered(args)
    else:
        loop, metrics, detail, problems = end_to_end(args)
        attempted, failed = loop.attempted, loop.failed
    ctx["loadavg_end"] = loadavg()
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": ctx, "detail": detail,
              "problems": problems, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
