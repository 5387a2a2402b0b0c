"""Smoke test of the benchmark at a tiny size; not part of the tier-1 suite.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import run  # noqa: E402
import tracing  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_absent_wrap_target_records_zero_calls(monkeypatch):
    gone = ("hypbound.harness", "no_such_function", "harness.gone")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    loop = run.Loop("disc_mix", 5, 0, replay=False, tracer=tracer)
    tracer.install()
    try:
        loop.round()
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert "hypbound.harness.no_such_function" in tracer.absent
    assert agg["harness.gone"]["calls"] == 0
    assert agg["models.dist"]["calls"] > 0
    assert loop.failed == 0


def test_raising_campaign_is_counted_and_the_run_continues(monkeypatch):
    import hypbound

    real = hypbound.run_campaign
    calls = []

    def flaky(cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise FloatingPointError("injected")
        return real(cfg)

    monkeypatch.setattr(hypbound, "run_campaign", flaky)
    loop = run.Loop("disc_mix", 5, 0, replay=True)
    loop.round()
    assert loop.attempted == 3 and loop.failed == 1
    assert loop.errors == {"FloatingPointError": 1}
    assert len(loop.campaign_ms) == 2
    assert len(loop.problems) == 1 and "injected" in loop.problems[0]


def test_missing_witness_leaves_its_inputs_out(monkeypatch):
    import dataclasses

    import hypbound
    import micro

    real = hypbound.run_sample

    def without_f(cfg, index):
        r = real(cfg, index)
        return dataclasses.replace(r, witnesses={k: v for k, v in r.witnesses.items()
                                                 if k != "f"})

    monkeypatch.setattr(run, "HARVEST", 2)
    monkeypatch.setattr(hypbound, "run_sample", without_f)
    inp, borrowed, missing = run.micro_inputs("disc_mix", 0)
    assert missing == ["f"]
    assert inp["mobius"] == [] and inp["check.two_point"] == []
    assert inp["disc_pairs"] and inp["sample_map.blaschke"]
    mic = micro.run_micro(inp, 0.001)
    assert mic["skipped"]["mobius.apply_value.ns_per_call"] == "no inputs"
    assert "models.dist_disc.ns_per_call" in mic["times"]
