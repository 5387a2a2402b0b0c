"""report.dumps writes what json.dumps(sort_keys=True, indent=2) writes, byte for byte."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbound import CampaignConfig, counterexample_demo, run_campaign, run_sample
from hypbound.report import dumps

from test_bounds import _pinned_reports


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


CONFIGS = [
    CampaignConfig("two_point", "blaschke", 12, 3),
    CampaignConfig("two_point_sharp", "blaschke", 12, 3, family_params={"max_degree": 16}),
    CampaignConfig("two_point", "automorphism", 12, 3),
    CampaignConfig("two_point", "mix", 12, 3),
    CampaignConfig("two_point_sharp", "mix", 12, 3, family_params={"max_degree": 2}),
    CampaignConfig("two_point", "realpart", 12, 3),
    CampaignConfig("fixed_point", "fixing", 12, 3),
    CampaignConfig("punctured", "exp", 12, 3, family_params={"max_power": 4, "max_decay": 2.0}),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.theorem}-{c.family}")
def test_sample_and_campaign_reports(cfg):
    for i in range(cfg.samples):
        d = run_sample(cfg, i).to_dict()
        assert dumps(d) == reference(d)
    report = run_campaign(cfg)
    for timing in (True, False):
        assert report.to_json(timing) == reference(report.to_dict(timing))


@pytest.mark.parametrize("theorem", ["two_point", "two_point_sharp", "xjb", "fixed_point",
                                     "punctured", "qlo"])
def test_every_check_report(theorem):
    d = _pinned_reports()[theorem].for_sample(7, 2 ** 40).to_dict()
    assert dumps(d) == reference(d)


def test_counterexample_demo_with_extras():
    report = counterexample_demo(pairs=50, seed=4)
    assert report.extras
    assert report.to_json() == reference(report.to_dict())


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [{}, []]}, [[[]]],
    0.0, -0.0, math.nan, math.inf, -math.inf, [math.nan, -math.inf, {"x": math.inf}],
    1e-320, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-17, 1e16, 123456789.0,
    0, -1, 2 ** 63, 2 ** 64 + 1, -(2 ** 70), 10 ** 40, True, False, None,
    "", "plain", "é", "日本語", "emoji \U0001F600", "line\nbreak\ttab\x00\x1f",
    "quote \" backslash \\ slash /", "  ", {"é": "é", "e": 1},
    {"b": 1, "a": [1, 2.5, "x", None, True], "c": {"z": -0.0, "y": [{"k": 2 ** 65}]}},
    (1, (2, 3.5), "four"),
    {1: "int keys", 2: "sorted"}, {2.5: "float key"}, {None: 1}, {True: 2},
    {"outer": {3: "a non-str key, nested", 1: [4.0]}},
])
def test_edge_values(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, [1, {1, 2}], {1: 0, "a": 1}, {(1, 2): 0}])
def test_refusals_are_json_dumps_refusals(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dumps(obj)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_nested_json_values(obj):
    assert dumps(obj) == reference(obj)
