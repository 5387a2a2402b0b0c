import copy
import csv
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hypbound
from hypbound import (
    BlaschkeProduct,
    CampaignConfig,
    Composition,
    Mobius,
    ModelPoint,
    UsageError,
    convergence_demo,
    counterexample_demo,
    halfplane_growth,
    run_campaign,
    run_sample,
)
from hypbound.cli import main
from hypbound import batch, cli, config, harness
from hypbound.errors import NumericalError
from hypbound.harness import (_sample_disc_point, _separated, _uniforms, derive_seeds,
                              write_rows_csv)
from hypbound.seeding import BLOCK, ChildSeed, _seed_sequence, block_states

from conftest import replayed_campaign

LN2 = math.log(2.0)


def child_env() -> dict:
    # the child imports hypbound from where this process found it
    path = [str(Path(hypbound.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_python(*args, timeout=None):
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=timeout, env=child_env())


def run_cli(*args, timeout=None):
    return run_python("-m", "hypbound", *args, timeout=timeout)


class TestConfig:
    def test_bad_theorem(self):
        with pytest.raises(UsageError):
            CampaignConfig("three_point", "blaschke", 10, 1)

    def test_family_theorem_mismatch(self):
        with pytest.raises(UsageError):
            CampaignConfig("punctured", "blaschke", 10, 1)
        with pytest.raises(UsageError):
            CampaignConfig("two_point", "exp", 10, 1)

    @pytest.mark.parametrize("theorem, family, params", [
        ("two_point", "automorphism", {"max_degree": 3}),
        ("two_point_sharp", "realpart", {"max_degree": 3}),
        ("two_point", "mix", {"max_power": 3}),
        ("fixed_point", "fixing", {"max_decay": 1.0}),
        ("punctured", "exp", {"max_degree": 3}),
    ])
    def test_unused_family_params_refused(self, theorem, family, params):
        with pytest.raises(UsageError):
            CampaignConfig(theorem, family, 10, 1, family_params=params)

    @pytest.mark.parametrize("theorem, family, given, params", [
        ("two_point", "blaschke", {}, {"max_degree": 5}),
        ("two_point", "automorphism", {}, {}),
        ("two_point", "mix", {}, {"max_degree": 5}),
        ("two_point", "realpart", {}, {}),
        ("fixed_point", "fixing", {}, {"max_degree": 4}),
        ("punctured", "exp", {}, {"max_power": 4, "max_decay": 2.0}),
        ("punctured", "exp", {"max_decay": 1}, {"max_power": 4, "max_decay": 1.0}),
        ("fixed_point", "fixing", {"max_degree": 7.0}, {"max_degree": 7}),
    ])
    def test_family_params_fill_in_the_defaults(self, theorem, family, given, params):
        # a family's defaults fill in what is not given, as the samplers' types;
        # the config echoes only what was given
        cfg = CampaignConfig(theorem, family, 10, 1, family_params=given)
        assert cfg.params == params
        assert [type(v) for v in cfg.params.values()] == [type(v) for v in params.values()]
        assert cfg.to_dict()["family_params"] == given

    def test_edits_of_the_passed_params_reach_no_config(self):
        # the report states the params its samples were drawn with
        given = {"max_degree": 3}
        cfg = CampaignConfig("two_point", "mix", 10, 1, family_params=given)
        text, report = repr(cfg), cfg.to_dict()
        given["max_degree"] = 9
        assert cfg.params == {"max_degree": 3} and cfg.family_params == {"max_degree": 3}
        assert repr(cfg) == text and cfg.to_dict() == report
        assert cfg == CampaignConfig("two_point", "mix", 10, 1, family_params={"max_degree": 3})

    def test_max_radius_beyond_disc_accuracy_refused(self):
        for theorem, family in (("two_point", "mix"), ("two_point_sharp", "blaschke"),
                                ("fixed_point", "fixing")):
            with pytest.raises(UsageError, match="14.6"):
                CampaignConfig(theorem, family, 10, 1, max_radius=40.0)
            CampaignConfig(theorem, family, 10, 1)  # the default radius 6
            CampaignConfig(theorem, family, 10, 1, max_radius=14.0)
        with pytest.raises(UsageError):
            CampaignConfig("two_point", "mix", 10, 1, tolerance=1e-14)
        # the punctured sampler caps its radius at 4
        CampaignConfig("punctured", "exp", 10, 1, max_radius=40.0)

    def test_positive_fields(self):
        with pytest.raises(UsageError):
            CampaignConfig("two_point", "mix", 0, 1)
        with pytest.raises(UsageError):
            CampaignConfig("two_point", "mix", 10, -3)
        with pytest.raises(UsageError):
            CampaignConfig("two_point", "mix", 10, 1, min_sep=0.0)
        for theorem, family in (("two_point", "realpart"), ("punctured", "exp")):
            for key in ("min_sep", "max_radius", "tolerance"):
                for value in (math.nan, math.inf, -math.inf):
                    with pytest.raises(UsageError, match=key):
                        CampaignConfig(theorem, family, 10, 1, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("samples", 10.0), ("samples", True), ("samples", "10"), ("samples", None),
        ("seed", 1.5), ("seed", 1.0), ("seed", False), ("seed", np.int64(3)),
    ])
    def test_integer_fields_refuse_other_types(self, key, value):
        # refused by the config, not deep in seeding or numpy
        fields = {"samples": 10, "seed": 1, key: value}
        with pytest.raises(UsageError, match=f"malformed {key}="):
            CampaignConfig("two_point", "mix", **fields)

    @pytest.mark.parametrize("theorem, family, params", [
        ("fixed_point", "fixing", {"max_degree": 0}),
        ("fixed_point", "fixing", {"max_degree": -5}),
        ("two_point", "blaschke", {"max_degree": 0}),
        ("two_point", "mix", {"max_degree": 0}),
        ("punctured", "exp", {"max_power": 0}),
        ("punctured", "exp", {"max_decay": -1.0}),
        ("punctured", "exp", {"max_decay": math.nan}),
        ("punctured", "exp", {"max_decay": math.inf}),
    ])
    def test_out_of_range_family_params_refused(self, theorem, family, params):
        with pytest.raises(UsageError, match=next(iter(params))):
            CampaignConfig(theorem, family, 10, 1, family_params=params)

    def test_max_degree_is_bounded(self):
        # a Blaschke sample draws 2 max_degree + 1 doubles: the bound is
        # refused before any sample is drawn, and the edge is only configured
        for value in (10 ** 4 + 1, 10 ** 8):
            for family in ("blaschke", "mix"):
                with pytest.raises(UsageError, match="max_degree"):
                    CampaignConfig("two_point", family, 10, 1, family_params={"max_degree": value})
            with pytest.raises(UsageError, match="max_degree"):
                hypbound.sample_map("blaschke", 0, {"max_degree": value})
        CampaignConfig("two_point", "blaschke", 10, 1, family_params={"max_degree": 10 ** 4})

    def test_max_power_is_bounded(self):
        # numpy draws the power as an int64: the bound is refused before any draw
        for value in (10 ** 4 + 1, 10 ** 20):
            with pytest.raises(UsageError, match="max_power"):
                CampaignConfig("punctured", "exp", 10, 1, family_params={"max_power": value})
            with pytest.raises(UsageError, match="max_power"):
                hypbound.sample_map("punctured_exp", 0, {"max_power": value, "max_decay": 1.0})
        for value in (4, 40, 150, 400, 10 ** 4):
            CampaignConfig("punctured", "exp", 10, 1, family_params={"max_power": value})

    def test_family_param_range_edges_accepted(self):
        for theorem, family, params in (("fixed_point", "fixing", {"max_degree": 1}),
                                        ("two_point", "mix", {"max_degree": 1}),
                                        ("punctured", "exp", {"max_power": 1, "max_decay": 0.0})):
            run_campaign(CampaignConfig(theorem, family, 5, 1, family_params=params))


# Start-up: numpy loads where a sample is drawn or a batch runs, and nowhere
# else. The children are fresh interpreters, as this one has numpy loaded.
_SCALAR_PATHS = """
import json, sys
from hypbound import *

for theorem, family in (("two_point", "blaschke"), ("two_point_sharp", "automorphism"),
                        ("two_point", "mix"), ("two_point", "realpart"),
                        ("fixed_point", "fixing"), ("punctured", "exp")):
    cfg = CampaignConfig(theorem, family, 40, 7)
disc = ModelPoint.disc
check_two_point(BlaschkeProduct(0.3, (0.2 + 0.1j, -0.4)), disc(0.1), disc(-0.4j), disc(0.5))
sigma = build_disc_automorphism(disc(0.3j), 0.0)
fixing = Composition((sigma, BlaschkeProduct(0.5, (0.0, 0.3)), sigma.inverse()))
check_fixed_point(fixing, disc(-0.5), disc(0.3j), disc(0.2 + 0.2j))
check_punctured(PuncturedExp(0.2, 2, 0.5), PuncturedPower(0.0, 2),
                ModelPoint.punctured(0.5), ModelPoint.punctured(0.3 + 0.2j))
for model, u, v in ((Model.DISC, 0.0, 0.5), (Model.UPPER_HALF_PLANE, 1j, 2 + 1j),
                    (Model.RIGHT_HALF_PLANE, 1.0, 2 + 1j), (Model.PUNCTURED_DISC, 0.5, 0.1j)):
    dist(ModelPoint(u, model), ModelPoint(v, model))
before = "numpy" in sys.modules
sample = run_sample(cfg, 3).to_dict()
after_sample = "numpy" in sys.modules
report = run_campaign(cfg).to_dict(include_timing=False)
print(json.dumps([before, after_sample, sample, report]))
"""


_NO_MASKED_ARRAYS = """
import json, sys
import numpy
from hypbound import *

preloaded = "numpy.ma" in sys.modules
for theorem, family in (("two_point", "mix"), ("two_point", "realpart"),
                        ("fixed_point", "fixing"), ("punctured", "exp")):
    cfg = CampaignConfig(theorem, family, 1100, 5)
    run_campaign(cfg)
    run_sample(cfg, 3)
print(json.dumps([preloaded, "numpy.ma" in sys.modules]))
"""


_DATACLASS_CALLS = """
import dataclasses, json, sys

real, names = dataclasses.dataclass, []


def counting(cls=None, /, **kwargs):
    def wrap(c):
        names.append(c.__qualname__)
        return real(c, **kwargs)

    return wrap if cls is None else wrap(cls)


dataclasses.dataclass = counting
import hypbound

hypbound.CampaignConfig("two_point", "mix", 500, 3001)
at_config = list(names)
disc = hypbound.ModelPoint.disc
hypbound.check_two_point(hypbound.BlaschkeProduct(0.3, (0.2 + 0.1j,)), disc(0.1), disc(-0.4j),
                         disc(0.5))
print(json.dumps([at_config, names, "csv" in sys.modules]))
"""

# the bench's setup snippet: one config, as the CLI builds it before a campaign
_CONFIG_ONLY = """
import hypbound
hypbound.CampaignConfig("two_point", "mix", 500, 3001, family_params={"max_degree": 5})
"""


def imported(stderr: str) -> list:
    """The modules a ``-X importtime`` run lists, in its stderr ``stderr``."""
    return [line.rpartition("|")[2].strip() for line in stderr.splitlines()
            if line.startswith("import time:")]


@pytest.fixture(scope="module")
def numpy_free_start():
    out = run_python("-c", "import sys; print('numpy' in sys.modules)", timeout=60)
    if out.stdout.strip() == "True":
        pytest.skip("this interpreter loads numpy before it runs any code")


@pytest.mark.usefixtures("numpy_free_start")
class TestStartup:
    def test_scalar_paths_load_no_numpy(self):
        out = run_python("-c", _SCALAR_PATHS, timeout=60)
        assert out.returncode == 0, out.stderr
        before, after_sample, sample, report = json.loads(out.stdout)
        assert (before, after_sample) == (False, True)
        cfg = CampaignConfig("punctured", "exp", 40, 7)
        assert sample == run_sample(cfg, 3).to_dict()
        assert report == run_campaign(cfg).to_dict(include_timing=False)

    def test_import_builds_one_dataclass_and_no_csv(self):
        # the maps, configs and results are slots classes: a config builds no
        # dataclass, the first check builds BoundReport, the one dataclass, and
        # csv loads with the first CSV table written
        out = run_python("-c", _DATACLASS_CALLS, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[], ["BoundReport"], False]

    def test_config_loads_only_the_config_layer(self):
        out = run_python("-X", "importtime", "-c", _CONFIG_ONLY, timeout=60)
        assert out.returncode == 0, out.stderr
        modules = imported(out.stderr)
        assert [m for m in modules if m.startswith("hypbound")] == [
            "hypbound", "hypbound.errors", "hypbound.models", "hypbound.config"]
        assert [m for m in modules if m.partition(".")[0] in
                ("dataclasses", "json", "numpy", "inspect")] == []

    def test_campaigns_leave_numpy_ma_unloaded(self):
        # np.unique, say, imports numpy.ma: a campaign and a replay need neither
        out = run_python("-c", _NO_MASKED_ARRAYS, timeout=60)
        assert out.returncode == 0, out.stderr
        preloaded, loaded = json.loads(out.stdout)
        if preloaded:
            pytest.skip("import numpy loads numpy.ma on this numpy")
        assert not loaded

    @pytest.mark.parametrize("argv, rc, unloaded", [
        # dist draws nothing and writes no JSON: it compiles cli, config,
        # models and errors alone
        (["dist", "disc", "0", "0.5"], 0, ["hypbound.harness", "dataclasses", "json"]),
        (["degree", "power:m=3"], 0, []),
        (["halfplane", "--n", "10"], 0, []),
        (["verify", "--theorem", "two_point", "--family", "mix:deg=x"], 2, []),
    ], ids=["dist", "degree", "halfplane", "malformed-verify"])
    def test_cli_imports_no_numpy(self, argv, rc, unloaded):
        out = run_python("-X", "importtime", "-m", "hypbound", *argv, timeout=60)
        assert out.returncode == rc, out.stderr
        modules = imported(out.stderr)
        assert "hypbound.cli" in modules
        assert [m for m in modules if m.partition(".")[0] == "numpy"] == []
        assert [m for m in modules if m in unloaded] == []

    def test_lazy_exports(self):
        # each public name resolves, on first use, to the object its home
        # module defines; a class or function of that name (evaluate is
        # holomaps' name for mobius.apply) was defined there, not imported
        for name in hypbound.__all__:
            home = importlib.import_module(f"hypbound.{hypbound._HOMES[name]}")
            value = getattr(hypbound, name)
            assert value is getattr(home, name), name
            if isinstance(value, (type, types.FunctionType)) and value.__name__ == name:
                assert value.__module__ == home.__name__, name
        assert set(hypbound.__all__) <= set(dir(hypbound))
        assert "__version__" in dir(hypbound)
        star: dict = {}
        exec("from hypbound import *", star)
        assert {name: star[name] for name in hypbound.__all__} == {
            name: getattr(hypbound, name) for name in hypbound.__all__}
        with pytest.raises(AttributeError, match="'no_such_name'"):
            hypbound.no_such_name
        assert hypbound.CampaignConfig is harness.CampaignConfig
        assert hypbound.harness is harness and hypbound.config is config

    def test_config_copies_and_pickles(self):
        cfg = CampaignConfig("punctured", "exp", 40, 7, family_params={"max_power": 6},
                             min_sep=0.2, tolerance=1e-8)
        for other in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert type(other) is CampaignConfig and other == cfg
            assert other.to_dict() == cfg.to_dict() and other.params == cfg.params

    def test_runners_cover_the_config_theorems(self):
        assert set(harness._RUNNERS) == config.THEOREMS
        assert set(batch._RUNNERS) == config.THEOREMS


class TestCampaigns:
    def test_blaschke_campaign_clean(self):
        cfg = CampaignConfig("two_point", "blaschke", 400, 42,
                             family_params={"max_degree": 5})
        report = run_campaign(cfg)
        assert report.violations == []
        assert report.margin_stats["min"] >= -1e-9

    def test_violations_match_stats(self):
        cfg = CampaignConfig("two_point", "realpart", 30, 7)
        report = run_campaign(cfg)
        assert report.violations
        assert report.margin_stats["min"] < -1e-9
        for r in report.violations:
            assert r.violated and r.rhs == 0.0 and r.lhs > 0.0

    def test_determinism_across_reruns_and_replay(self):
        for cfg in (CampaignConfig("two_point", "mix", 200, 11,
                                   family_params={"max_degree": 4}),
                    CampaignConfig("two_point", "realpart", 30, 7),
                    CampaignConfig("two_point_sharp", "blaschke", 100, 3,
                                   family_params={"max_degree": 16}),
                    CampaignConfig("two_point", "automorphism", 100, 4),
                    CampaignConfig("fixed_point", "fixing", 100, 5),
                    CampaignConfig("punctured", "exp", 100, 6,
                                   family_params={"max_power": 4, "max_decay": 2.0}),
                    CampaignConfig("punctured", "exp", 100, 8,
                                   family_params={"max_power": 12}),
                    # longer than one seeding block
                    CampaignConfig("two_point", "mix", BLOCK + 76, 12),
                    # clean and violating samples mixed
                    CampaignConfig("two_point", "realpart", 200, 7, tolerance=1.0)):
            reports = [run_campaign(cfg) for _ in range(3)]
            texts = {r.to_json(include_timing=False) for r in reports}
            assert len(texts) == 1
            replay = replayed_campaign(cfg)
            assert replay.margin_stats == reports[0].margin_stats
            assert ([v.to_dict() for v in replay.violations]
                    == [v.to_dict() for v in reports[0].violations])
            assert replay.to_json(include_timing=False) in texts

    def test_mixed_campaign_reports_only_its_violations(self):
        cfg = CampaignConfig("two_point", "realpart", 200, 7, tolerance=1.0)
        report = run_campaign(cfg)
        assert len(report.violations) == 126
        assert [v.witnesses["index"] for v in report.violations] == [
            i for i in range(cfg.samples) if run_sample(cfg, i).violated]

    def test_clean_campaign_serialises_only_its_reruns(self, monkeypatch):
        # a report's witnesses are serialised as it is built, and a clean
        # campaign builds reports only for the samples it re-runs through
        # the scalar runner: the batch serialises no map or point
        calls, reruns = [], []
        for cls in (ModelPoint, BlaschkeProduct, Composition, Mobius):
            def counted(self, _to_dict=cls.to_dict):
                calls.append(type(self).__name__)
                return _to_dict(self)
            monkeypatch.setattr(cls, "to_dict", counted)
        runner = harness._RUNNERS["two_point"]

        def recorded(cfg, index, seeds):
            before = len(calls)
            report = runner(cfg, index, seeds)
            reruns.append(calls[before:])
            return report

        monkeypatch.setitem(harness._RUNNERS, "two_point", recorded)
        cfg = CampaignConfig("two_point", "mix", 500, 21)
        assert run_campaign(cfg).violations == []
        # the margin_stats ranks at least, a few of 500 samples
        assert 4 <= len(reruns) <= 25
        # a, b, z and the map of each re-run sample, and nothing else
        assert all(r.count("ModelPoint") == 3 and len(r) >= 4 for r in reruns)
        assert len(calls) == sum(map(len, reruns))

    @pytest.mark.parametrize("theorem, family, tolerance, check", [
        ("two_point", "mix", 1e-9, "check_two_point"),
        ("two_point_sharp", "blaschke", 1e-9, "check_two_point"),
        ("two_point", "realpart", 1.0, "check_two_point"),
        ("fixed_point", "fixing", 1e-9, "check_fixed_point"),
        ("punctured", "exp", 1e-9, "check_punctured"),
    ])
    def test_rescued_samples_go_through_the_public_check(self, theorem, family, tolerance,
                                                         check, monkeypatch):
        # the batch decides most samples; each one it re-runs through its
        # scalar runner, and run_sample, calls the public check by the name
        # hypbound.harness imports, which a tracer wraps
        calls = {name: 0 for name in ("check_two_point", "check_fixed_point",
                                      "check_punctured")}
        for name in calls:
            def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        runs = []
        runner = harness._RUNNERS[theorem]
        monkeypatch.setitem(harness._RUNNERS, theorem,
                            lambda cfg, i, seeds: runs.append(i) or runner(cfg, i, seeds))
        cfg = CampaignConfig(theorem, family, 40, 3, tolerance=tolerance)
        report = run_campaign(cfg)
        # the ranks of margin_stats are re-run at least, and every violation
        assert len(set(runs)) == len(runs) >= 4
        assert {v.witnesses["index"] for v in report.violations} <= set(runs)
        run_sample(cfg, 0)
        assert calls == {name: len(runs) if name == check else 0 for name in calls}

    def test_rerun_identical(self):
        cfg = CampaignConfig("fixed_point", "fixing", 100, 5)
        a = run_campaign(cfg).to_json(include_timing=False)
        b = run_campaign(cfg).to_json(include_timing=False)
        assert a == b

    def test_sample_rebuild_reproduces_margin(self):
        cfg = CampaignConfig("two_point", "mix", 50, 13,
                             family_params={"max_degree": 5})
        report = run_campaign(cfg)
        # every sample is reproducible from (seed, index)
        for index in (0, 17, 49):
            first = run_sample(cfg, index)
            second = run_sample(cfg, index)
            assert abs(first.margin - second.margin) <= 1e-12 * max(1.0, abs(first.margin))
            assert first.witnesses["index"] == index
            assert first.witnesses["seed"] == cfg.seed
        assert report.margin_stats["min"] >= -1e-9

    @pytest.mark.parametrize("index", [-1, -BLOCK, 1.5, 3.0, True, "3", None])
    def test_run_sample_refuses_a_malformed_index(self, index):
        # a negative index would wrap in a block's words
        cfg = CampaignConfig("two_point", "mix", 10, 1)
        with pytest.raises(UsageError, match=f"malformed index={index!r}"):
            run_sample(cfg, index)

    def test_replay_memo_is_bounded_and_changes_no_byte(self):
        # a replay reads its block's words from a memo: cold or warm, the
        # report is the one numpy's own derive_seeds route gives
        cfg = CampaignConfig("two_point", "mix", 10, 6)
        indices = (0, BLOCK - 1, BLOCK, 2 ** 32 + 5, 2 ** 64 + 1)
        want = [harness._run(cfg, i, derive_seeds(cfg.seed, i)).to_dict() for i in indices]
        cold = []
        for i in indices:
            harness._block_words.cache_clear()
            cold.append(run_sample(cfg, i).to_dict())
        warm = [run_sample(cfg, i).to_dict() for i in indices]
        assert cold == warm == want
        for seed in range(2 * harness.REPLAY_BLOCKS):
            run_sample(CampaignConfig("punctured", "exp", 10, seed), 7)
            assert harness._block_words.cache_info().currsize <= harness.REPLAY_BLOCKS
        assert harness._block_words.cache_info().currsize == harness.REPLAY_BLOCKS

    def test_campaigns_and_replays_derive_no_seeds(self, monkeypatch):
        # the runners receive only SampleSeeds: the rank lanes of this
        # campaign's first block (six) and every replay read block_states words
        cfg = CampaignConfig("two_point", "mix", BLOCK + 76, 12)
        want = run_campaign(cfg).to_json(include_timing=False)

        def refuse(seed, index):
            raise AssertionError("derive_seeds reached")

        monkeypatch.setattr(harness, "derive_seeds", refuse)
        harness._block_words.cache_clear()
        assert run_campaign(cfg).to_json(include_timing=False) == want
        assert replayed_campaign(cfg).to_json(include_timing=False) == want

    def test_violation_records_are_recheckable(self):
        cfg = CampaignConfig("two_point", "realpart", 20, 7)
        report = run_campaign(cfg)
        assert report.violations
        for record in report.violations[:5]:
            rebuilt = run_sample(cfg, record.witnesses["index"])
            assert rebuilt.violated
            assert abs(rebuilt.margin - record.margin) <= 1e-12 * max(1.0, abs(record.margin))
            assert rebuilt.witnesses["f"] == record.witnesses["f"]

    def test_realpart_unattainable_separation(self):
        # realpart's base points lie in (-0.9, 0.9), within 2 atanh(0.9) of the origin
        reach = 2.0 * math.atanh(0.9)
        with pytest.raises(UsageError, match=rf"^malformed min_sep=10.0: must be at most {reach!r}$"):
            CampaignConfig("two_point", "realpart", 3, 1, min_sep=10.0)
        with pytest.raises(UsageError, match="malformed min_sep=2.95"):
            CampaignConfig("two_point_sharp", "realpart", 3, 1, min_sep=2.95)
        CampaignConfig("two_point", "realpart", 3, 1, min_sep=reach)

    @pytest.mark.parametrize("theorem, family", [
        ("two_point", "blaschke"), ("two_point_sharp", "automorphism"), ("two_point", "mix"),
        ("fixed_point", "fixing"),
    ])
    def test_min_sep_beyond_half_the_radius_refused(self, theorem, family):
        # a first point at the origin has no point of the sampling ball, of
        # hyperbolic radius max_radius / 2, farther away than that
        with pytest.raises(UsageError, match=r"^malformed min_sep=3.6: must be at most 3.0$"):
            CampaignConfig(theorem, family, 10, 1, min_sep=3.6)
        with pytest.raises(UsageError, match=r"^malformed min_sep=2.5: must be at most 2.0$"):
            CampaignConfig(theorem, family, 10, 1, min_sep=2.5, max_radius=4.0)
        CampaignConfig(theorem, family, 10, 1, min_sep=3.0)
        CampaignConfig(theorem, family, 10, 1, min_sep=5.0, max_radius=10.0)

    def test_punctured_min_sep_is_not_bounded(self):
        # the punctured sampler draws no separated pair
        CampaignConfig("punctured", "exp", 10, 1, min_sep=100.0)

    def test_verify_refuses_unreachable_min_sep(self, capsys):
        assert main(["verify", "--theorem", "two_point", "--family", "mix", "--samples", "100",
                     "--seed", "3", "--min-sep", "3.6"]) == 2
        assert capsys.readouterr().err == "error: malformed min_sep=3.6: must be at most 3.0\n"

    def test_failing_sample_is_named(self):
        # at m near 400 the base-point redraws can run out; the campaign
        # names the first sample that lost it, and run_sample names it the
        # same way, with the runner's own error as the cause
        cfg = CampaignConfig("punctured", "exp", 200, 42, family_params={"max_power": 400})
        with pytest.raises(NumericalError) as info:
            run_campaign(cfg)
        cause = "could not sample a base point with a representable image"
        assert str(info.value) == f"sample 120 of seed 42: {cause}"
        with pytest.raises(NumericalError) as info:
            run_sample(cfg, 120)
        assert str(info.value) == f"sample 120 of seed 42: {cause}"
        assert type(info.value.__cause__) is NumericalError
        assert str(info.value.__cause__) == cause
        # min_sep below realpart's reach 2 atanh(0.9): samples 10 and 35 run out
        cfg = CampaignConfig("two_point", "realpart", 40, 4, min_sep=2.9)
        with pytest.raises(UsageError, match="^sample 10 of seed 4: min_sep is unattainable"):
            run_campaign(cfg)
        with pytest.raises(UsageError, match="^sample 35 of seed 4: min_sep is unattainable"):
            run_sample(cfg, 35)

    def test_punctured_campaign(self):
        cfg = CampaignConfig("punctured", "exp", 60, 3,
                             family_params={"max_power": 4, "max_decay": 2.0})
        report = run_campaign(cfg)
        assert report.violations == []

    def test_punctured_high_power_completes(self):
        # 0.05**40 underflows the punctured disc's margin: base points whose
        # image f(a) is not representable are redrawn
        cfg = CampaignConfig("punctured", "exp", 200, 42, family_params={"max_power": 40})
        report = run_campaign(cfg)
        assert report.violations == []
        assert report.to_json(False) == replayed_campaign(cfg).to_json(False)

    def test_seed_splitting_is_stable(self):
        assert derive_seeds(42, 0) == derive_seeds(42, 0)
        assert derive_seeds(42, 0) != derive_seeds(42, 1)
        assert derive_seeds(42, 0) != derive_seeds(43, 0)

    def test_seed_contract_is_pinned(self):
        # the splitting rule and the first draw of each child's generator,
        # as literals: a numpy release that changed seeding would change
        # every report's bytes, and fails here instead
        want = {
            0: ([14667151931722001445, 8368139746416978935,
                 7053775015097763905, 14897445140615492404],
                [0.9801046292176597, 0.906746370632002,
                 0.6179607927625976, 0.6282902368304226]),
            1: ([4676235170662605758, 2166774691961821553,
                 5605184042632993685, 280807635316854886],
                [0.39850495127987406, 0.24002761251182503,
                 0.4155763287955496, 0.5980221835464028]),
            2: ([278179885507208118, 9851227419835906499,
                 15456382359934933023, 12846675901496642028],
                [0.3164217119662832, 0.21391086982417873,
                 0.8681159670165643, 0.2769450712264596]),
        }
        for index, (children, first) in want.items():
            assert derive_seeds(2018, index) == children
            assert [np.random.default_rng(c).random() for c in children] == first


@pytest.mark.parametrize("n", [*range(1, 61), 99, 100, 101, 499, 500, 501, 1024, 1027, 2100,
                               10 ** 5])
def test_margin_stats_match_numpy(n):
    # random margins across scales, and the same rounded so that ranks tie
    rng = np.random.default_rng(n)
    arrays = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12) for _ in range(3)]
    arrays += [np.round(x / np.abs(x).max(), 1) for x in arrays]
    for margins in arrays:
        stats = harness.margin_stats(np.sort(margins))
        assert stats == {"min": margins.min(), "median": np.median(margins),
                         "p99": np.percentile(margins, 99), "max": margins.max()}
        assert all(type(v) is float for v in stats.values())


class TestBlockSeeding:
    @staticmethod
    def assert_same_stream(seed, child):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(child)
        assert ours.integers(0, 3) == ref.integers(0, 3)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 5, 2 ** 64 + 3, 2 ** 100 + 1])
    def test_generators_match_default_rng(self, seed):
        # every index of a block and the first ones of the next
        samples = BLOCK + 3
        words = np.concatenate([block_states(seed, 0, BLOCK, 4),
                                block_states(seed, BLOCK, samples, 4)])
        for index, row in enumerate(words):
            for ours, child in zip(row, derive_seeds(seed, index), strict=True):
                self.assert_same_stream(ChildSeed(ours), child)
        assert index == samples - 1

    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_fewer_streams_are_the_first_ones(self, streams):
        # a campaign hashes only the child seeds its runners read
        assert block_states(2018, 0, 300, streams).shape == (300, streams, 4)
        assert np.array_equal(block_states(2018, 0, 300, streams),
                              block_states(2018, 0, 300, 4)[:, :streams])

    def test_child_seed_replays_like_an_int_child(self):
        ours = ChildSeed(block_states(9, 0, 4, 4)[2, 1])
        child = derive_seeds(9, 2)[1]
        for seed in (ours, child):
            first = np.random.default_rng(seed).random()
            assert np.random.default_rng(seed).random() == first
        self.assert_same_stream(ours, child)

    def test_child_seed_answers_only_the_pcg64_request(self):
        ours = ChildSeed(block_states(3, 0, 1, 4)[0, 0])
        want = np.random.SeedSequence(derive_seeds(3, 0)[0]).generate_state(4, np.uint64)
        assert np.array_equal(ours.generate_state(4, np.uint64), want)
        for args in ((4,), (4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError):
                ours.generate_state(*args)

    @pytest.mark.parametrize("seed", [7, 2 ** 64 + 3])
    def test_indices_past_two_to_the_32(self, seed):
        # two entropy words per index
        start = 2 ** 32
        for row, words in enumerate(block_states(seed, start, start + 3, 4)):
            for child_words, child in zip(words, derive_seeds(seed, start + row), strict=True):
                got = np.random.default_rng(ChildSeed(child_words)).bit_generator.state
                assert got == np.random.default_rng(child).bit_generator.state

    def test_child_seeds_below_two_to_the_32(self):
        # such a child is one SeedSequence word; sampling meets one about
        # once in 2^32 children, so the array is crafted
        children = [0, 1, 5, 2018, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
        c = np.array(children, dtype=np.uint64)
        words = np.stack(_seed_sequence([c & 0xFFFFFFFF, c >> 32], 4), axis=1)
        for child_words, child in zip(words, children, strict=True):
            want = np.random.SeedSequence(child).generate_state(4, np.uint64)
            assert np.array_equal(child_words, want)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (0.0, math.tau), (0.0, 3.0), (0.0, 4.0), (0.0, 2.0),
        (-0.9, 0.9), (math.log(0.05), math.log(0.95)), (-2.5e-4, 2.5e-4),
    ])
    def test_uniform_helper_is_generator_uniform(self, lo, hi):
        uniform, ref = _uniforms(np.random.default_rng(31)), np.random.default_rng(31)
        got = np.array([uniform(lo, hi) for _ in range(10 ** 5)])
        assert np.array_equal(got, ref.uniform(lo, hi, 10 ** 5))

    def test_uniform_reader_across_refills(self):
        # ranges change from draw to draw, across five refills of 16 doubles
        uniform, ref = _uniforms(np.random.default_rng(5)), np.random.default_rng(5)
        for i in range(5 * 16 + 2):
            lo, hi = -float(i), float(i % 7) + 0.5
            assert uniform(lo, hi) == ref.uniform(lo, hi)

    def test_uniform_reader_through_a_rejection_loop(self):
        # b is redrawn until it is min_sep from a, as the runners draw it;
        # the reader and one Generator.uniform call per draw agree throughout
        for seed in range(20):
            ref = np.random.default_rng(seed)
            streams = (_uniforms(np.random.default_rng(seed)),
                       lambda lo=0.0, hi=1.0: ref.uniform(lo, hi))
            points = []
            for uniform in streams:
                a = _sample_disc_point(uniform, 2.0)
                b = _separated(lambda: _sample_disc_point(uniform, 2.0), a, 1.5)
                points.append((a, b, _sample_disc_point(uniform, 2.0), uniform()))
            assert points[0] == points[1]


class TestHalfplaneGrowth:
    def test_table_values(self):
        rows = halfplane_growth([10, 100])
        assert abs(rows[0]["ratio"] - math.log(1.1) / math.log(1.01)) <= 1e-12 * rows[0]["ratio"]
        assert abs(rows[0]["exp_rho_za"] - 10.0) <= 1e-9
        assert abs(rows[1]["ratio"] - 99.5083) <= 1e-3

    def test_displacements_match_closed_forms(self):
        rows = halfplane_growth([10, 100, 1000])
        for row in rows:
            n = row["n"]
            assert abs(row["disp_z"] - math.log1p(1.0 / n)) <= 1e-12
            assert abs(row["disp_a"] - math.log1p(1.0 / n ** 2)) <= 1e-12

    def test_ratio_envelope(self):
        for row in halfplane_growth([10, 50, 100, 1000, 10000]):
            assert abs(row["ratio"] / row["n"] - 1.0) <= 2.0 / row["n"]

    def test_small_n_rejected(self):
        with pytest.raises(UsageError):
            halfplane_growth([1])

    def test_n_whose_anchor_rounds_refused(self):
        # from n = 94906266 on, 1 + 1/n^2 rounds to 1 and the anchor's displacement is 0
        with pytest.raises(NumericalError, match="n=94906266"):
            halfplane_growth([94906266])

    def test_empty_table_refused(self):
        with pytest.raises(UsageError, match="nothing to tabulate"):
            halfplane_growth([])


class TestCounterexample:
    def test_both_findings(self):
        report = counterexample_demo(pairs=500, seed=0)
        contraction = report.extras["contraction"]
        assert contraction["pairs"] == 500
        assert contraction["failures"] == 0
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.violated and v.rhs == 0.0
        assert abs(v.lhs - 2.0 * math.atanh(0.5)) <= 1e-12
        assert report.extras["expected_violation"] is True

    @pytest.mark.parametrize("kwargs, message", [
        ({"pairs": 0}, "pairs must be >= 1"),
        ({"pairs": -3}, "pairs must be >= 1"),
        ({"seed": -1}, "malformed seed=-1: must be an integer >= 0"),
    ], ids=["0", "-3", "seed-minus-1"])
    def test_no_pairs_refused(self, kwargs, message):
        with pytest.raises(UsageError, match=message):
            counterexample_demo(**kwargs)

    def test_deterministic(self):
        a = counterexample_demo(pairs=200, seed=3).to_json(include_timing=False)
        b = counterexample_demo(pairs=200, seed=3).to_json(include_timing=False)
        assert a == b


class TestConvergence:
    def test_rows_satisfy_transfer(self):
        z = ModelPoint.disc(0.5j)
        rows = convergence_demo("inv_square", z, rows=15)
        for row in rows:
            assert row["measured_ab"] <= row["budget"] + 1e-15
            assert row["disp_z"] <= row["bound_z"] + 1e-9

    def test_partial_sums_approach_limit(self):
        z = ModelPoint.disc(0.5j)
        rows = convergence_demo("inv_square", z, rows=50)
        constant = rows[0]["bound_z"]  # budget(1) = 1
        limit = constant * math.pi ** 2 / 6.0
        partials = [row["partial_sum_bound"] for row in rows]
        assert all(x < limit for x in partials)
        assert all(b > a for a, b in zip(partials, partials[1:]))
        # tail of sum 1/n^2 beyond N is below 1/N
        assert limit - partials[-1] <= constant / 50.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"rows": 0}, "rows must be >= 1"),
        ({"rows": -3}, "rows must be >= 1"),
        ({"seed": -1}, "malformed seed=-1: must be an integer >= 0"),
    ], ids=["0", "-3", "seed-minus-1"])
    def test_empty_table_refused(self, kwargs, message):
        with pytest.raises(UsageError, match=message):
            convergence_demo("inv_square", ModelPoint.disc(0.5j), **kwargs)

    def test_underflowing_budget_refused(self):
        # 2^-1000 is a double, 3^-1000 is 0
        with pytest.raises(UsageError, match=r"budget 'inv_power:p=1000' underflows .* row 3"):
            convergence_demo("inv_power:p=1000", ModelPoint.disc(0.3), rows=3)

    def test_non_summable_refused(self):
        z = ModelPoint.disc(0.5j)
        with pytest.raises(UsageError):
            convergence_demo("inv_linear", z)
        with pytest.raises(UsageError):
            convergence_demo("inv_power:p=0.5", z)
        with pytest.raises(UsageError):
            convergence_demo("alternating", z)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rows = halfplane_growth([10, 100])
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert float(parsed[0]["ratio"]) == pytest.approx(rows[0]["ratio"], rel=1e-15)


class TestCli:
    def test_dist(self):
        out = run_cli("dist", "righthalf", "1", "2")
        assert out.returncode == 0
        assert abs(float(out.stdout) - LN2) <= 1e-12

    def test_dist_complex_parsing(self):
        out = run_cli("dist", "disc", "0", "0.5i")
        assert out.returncode == 0
        assert abs(float(out.stdout) - 2.0 * math.atanh(0.5)) <= 1e-12

    def test_degree_shorthand(self):
        out = run_cli("degree", "exp:m=2,c=0.5")
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == 2

    @pytest.mark.parametrize("spec, degree", [
        ("exp:m=40", 40), ("power:m=60", 60),
        ("power:m=2000", 2000), ("power:m=1|power:m=2000", 2000),
    ])
    def test_degree_of_high_powers(self, spec, degree, capsys):
        assert main(["degree", spec]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == degree

    def test_verify_refuses_unusable_max_radius(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "--theorem", "two_point", "--family", "mix",
                      "--max-radius", "40", "--samples", "200", "--out", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error: max_radius 40 is above 14.6")
        assert not path.exists()

    def test_degree_json_spec(self):
        spec = json.dumps({"variant": "punctured_power", "rotation": 0.0, "power": 4})
        out = run_cli("degree", spec)
        assert json.loads(out.stdout)["value"] == 4

    @pytest.mark.parametrize("args", [
        ("verify", "--theorem", "two_point", "--family", "realpart", "--samples", "3000"),
        ("halfplane", "--n", ",".join(map(str, range(2, 3000)))),
    ], ids=["verify", "halfplane"])
    def test_closed_stdout_exits_quietly(self, args):
        # each writes far more than a pipe holds, so the write after the close fails
        child = subprocess.Popen([sys.executable, "-m", "hypbound", *args], env=child_env(),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert child.stdout.readline().strip() in (b"{", b"[")
            child.stdout.close()
            assert child.stderr.read() == b""
            assert child.wait(timeout=60) == 141
        finally:
            child.kill()
            child.wait()
            child.stderr.close()

    def test_verify_clean_exit(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "--theorem", "two_point", "--family", "mix:deg=4",
                      "--samples", "50", "--seed", "42", "--out", str(path))
        assert out.returncode == 0
        data = json.loads(path.read_text())
        assert data["violations"] == []
        assert data["schema_version"] == 1

    def test_verify_violating_exit(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "--theorem", "two_point", "--family", "realpart",
                      "--samples", "10", "--seed", "1", "--out", str(path))
        assert out.returncode == 1
        assert json.loads(path.read_text())["violations"]

    def test_verify_rerun_identical_json(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_cli("verify", "--theorem", "two_point_sharp", "--family", "blaschke:deg=3",
                    "--samples", "40", "--seed", "9", "--out", str(path))
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("wall_time_s")
        assert docs[0] == docs[1]

    def test_counterexample_exit(self, tmp_path):
        out = run_cli("counterexample", "--pairs", "100",
                      "--out", str(tmp_path / "ce.json"))
        assert out.returncode == 0

    @pytest.mark.parametrize("argv, line", [
        (["--pairs", "0"], "error: pairs must be >= 1\n"),
        (["--pairs", "-3"], "error: pairs must be >= 1\n"),
        (["--seed", "-1"], "error: malformed seed=-1: must be an integer >= 0\n"),
    ], ids=["0", "-3", "seed-minus-1"])
    def test_counterexample_without_pairs_exits(self, argv, line, capsys):
        assert main(["counterexample", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == line

    @pytest.mark.parametrize("argv, line", [
        (["convergence", "--z", "0.5i", "--rows", "0"], "error: rows must be >= 1\n"),
        (["convergence", "--z", "0.5i", "--rows", "-3"], "error: rows must be >= 1\n"),
        (["halfplane", "--n", ","], "error: no n values: nothing to tabulate\n"),
        (["convergence", "--z", "0.3", "--seed", "-1"],
         "error: malformed seed=-1: must be an integer >= 0\n"),
        (["halfplane", "--n", "100000000"],
         "error: at n=100000000, 1 + 1/n^2 rounds to 1: the anchor does not move\n"),
        (["convergence", "--z", "0.3", "--budget", "inv_power:p=1000", "--rows", "3"],
         "error: budget 'inv_power:p=1000' underflows to 0.0 at row 3\n"),
    ], ids=["rows-0", "rows-minus-3", "n-empty", "seed-minus-1", "n-rounds", "budget-underflow"])
    def test_empty_table_exits_with_or_without_out(self, argv, line, tmp_path, capsys):
        path = tmp_path / "table.csv"
        for out in ([], ["--out", str(path)]):
            assert main(argv + out) == 2
            got = capsys.readouterr()
            assert (got.out, got.err) == ("", line)
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "two_point", "--family", "mix", "--samples", "10"],
        ["counterexample", "--pairs", "10"],
        ["halfplane", "--n", "10"],
        ["convergence", "--z", "0.5i", "--rows", "2"],
    ], ids=["verify", "counterexample", "halfplane", "convergence"])
    def test_unwritable_out_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        assert main(argv + ["--out", str(path)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"error: cannot write {path}: No such file or directory\n"
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_verify_opens_out_before_the_campaign(self, tmp_path, monkeypatch, capsys):
        # --out is truncated before any sample runs, as a shell redirect truncates it
        path = tmp_path / "report.json"
        path.write_text("stale")
        seen = []
        monkeypatch.setattr(harness, "run_campaign",
                            lambda cfg: seen.append(path.read_text()) or run_campaign(cfg))
        argv = ["verify", "--theorem", "two_point", "--family", "mix", "--samples", "10"]
        assert main(argv + ["--out", str(path)]) == 0
        assert seen == [""] and json.loads(path.read_text())["violations"] == []
        capsys.readouterr()
        # so an unwritable path ends at once
        monkeypatch.setattr(harness, "run_campaign", lambda cfg: pytest.fail("the campaign ran"))
        for bad in (tmp_path / "missing" / "out", tmp_path):
            assert main(argv + ["--out", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")

    def test_halfplane_csv(self, tmp_path):
        path = tmp_path / "hp.csv"
        out = run_cli("halfplane", "--n", "10,100", "--out", str(path))
        assert out.returncode == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["10", "100"]

    def test_convergence_refuses_harmonic(self):
        out = run_cli("convergence", "--budget", "inv_linear", "--z", "0.5i")
        assert out.returncode == 2
        assert "not summable" in out.stderr

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_convergence_refuses_non_finite_exponent(self, p, capsys):
        assert main(["convergence", "--budget", f"inv_power:p={p}", "--z", "0.5i"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: budget 'inv_power:p={p}' needs a finite exponent p > 1\n"

    @pytest.mark.parametrize("spec, name", [
        ("exp:m=2,c=nan", "decay"), ("exp:m=2,c=inf", "decay"),
        ("power:m=2,theta=inf", "rotation"), ("exp:m=2,theta=nan", "rotation"),
        ('{"variant": "punctured_exp", "rotation": 0.0, "power": 2, "decay": NaN}', "decay"),
        ('{"variant": "punctured_power", "rotation": Infinity, "power": 2}', "rotation"),
    ], ids=["exp-c-nan", "exp-c-inf", "power-theta-inf", "exp-theta-nan", "json-decay-nan",
            "json-rotation-inf"])
    def test_degree_refuses_non_finite_map_parameter(self, spec, name, capsys):
        assert main(["degree", spec]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith(f"error: {name} must be finite")

    def test_bad_model_token(self):
        out = run_cli("dist", "plane", "0", "1")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["degree", "power"],
        ["degree", "exp:c=1"],
        ["degree", "{bad"],
        ["degree", '{"variant":"blaschke"}'],
        ["degree", '{"variant":"composition","maps":[1]}'],
        ["degree", "exp:m=x"],
        ["verify", "--theorem", "two_point", "--family", "mix:deg=x"],
        ["verify", "--theorem", "punctured", "--family", "exp:c=x"],
        ["halfplane", "--n", "10,x"],
        ["verify", "--theorem", "two_point", "--family", "realpart", "--tolerance", "nan"],
        ["verify", "--theorem", "punctured", "--family", "exp", "--max-radius", "nan"],
        ["verify", "--theorem", "fixed_point", "--family", "fixing:deg=0"],
        ["verify", "--theorem", "punctured", "--family", "exp:c=inf"],
    ], ids=["power-no-m", "exp-no-m", "bad-json", "blaschke-no-rotation",
            "composition-bad-map", "exp-m-x",
            "mix-deg-x", "exp-c-x", "halfplane-n-x",
            "tolerance-nan", "max-radius-nan", "fixing-deg-0", "exp-c-inf"])
    def test_malformed_input_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ")

    @pytest.mark.parametrize("argv, key", [
        (["verify", "--theorem", "two_point", "--family", "mix:deg=5,deg=6"], "'deg'"),
        (["verify", "--theorem", "two_point", "--family", "mix:deg=5,max_degree=6"],
         "'max_degree'"),
        (["verify", "--theorem", "two_point", "--family", "blaschke:max_degree=5,deg=5"],
         "'max_degree'"),
        (["verify", "--theorem", "punctured", "--family", "exp:m=3,max_power=4"], "'max_power'"),
        (["verify", "--theorem", "punctured", "--family", "exp:m=3,c=1,max_decay=2"],
         "'max_decay'"),
        (["degree", "power:m=3,m=4"], "'m'"),
        (["degree", "exp:m=3,c=1,c=1"], "'c'"),
        (["degree", "power:theta=1,m=2,theta=2|identity"], "'theta'"),
    ], ids=["mix-deg-deg", "mix-deg-max_degree", "blaschke-max_degree-deg", "exp-m-max_power",
            "exp-c-max_decay", "power-m-m", "exp-c-c", "power-theta-theta"])
    def test_parameter_given_twice_is_usage_error(self, argv, key, capsys):
        # neither the first nor the last value is kept silently
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and f"{key} given twice" in out.err

    def test_huge_max_degree_exits(self):
        out = run_cli("verify", "--theorem", "two_point", "--family", "blaschke:deg=100000000",
                      "--samples", "2", timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: malformed max_degree=100000000: must be in [1, 10000]"]

    def test_huge_max_power_exits(self):
        out = run_cli("verify", "--theorem", "punctured", "--family", "exp:m=99999999999999999999",
                      "--samples", "2", timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: malformed max_power=99999999999999999999: must be in [1, 10000]"]

    def test_unused_family_param_exits(self):
        out = run_cli("verify", "--theorem", "two_point", "--family", "automorphism:deg=3",
                      "--samples", "3", timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == ["error: family 'automorphism' takes no parameter "
                                           "'max_degree'"]

    def test_refused_setting_writes_no_report(self, tmp_path):
        path = tmp_path / "report.json"
        for setting in (["--theorem", "two_point", "--family", "realpart", "--tolerance", "nan"],
                        ["--theorem", "fixed_point", "--family", "fixing:deg=0"]):
            out = run_cli("verify", *setting, "--out", str(path), timeout=30)
            assert out.returncode == 2
            assert out.stdout == "" and len(out.stderr.splitlines()) == 1
            assert out.stderr.startswith("error: malformed ")
            assert not path.exists()

    def test_verify_names_the_failing_sample(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "--theorem", "punctured", "--family", "exp:m=400",
                      "--samples", "200", "--out", str(path), timeout=60)
        assert out.returncode == 2
        assert out.stderr.startswith("error: sample 120 of seed 42: could not sample")
        assert path.read_text() == ""  # truncated before the campaign, and no report written

    def test_realpart_small_radius_exits(self):
        # |Im z| < tanh(0.025) < 0.1 for every z the sampler can draw
        out = run_cli("verify", "--theorem", "two_point", "--family", "realpart",
                      "--samples", "3", "--max-radius", "0.1", timeout=30)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
