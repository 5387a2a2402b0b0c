"""A ledger of report bytes: the SHA-256 of every output on a fixed list of
campaigns, sample replays and demo tables, kept in ``report_ledger.json``.

    PYTHONPATH=src python tests/report_ledger.py            # name the entries that changed
    PYTHONPATH=src python tests/report_ledger.py --record   # rewrite the ledger
    PYTHONPATH=src python tests/report_ledger.py --json     # print the digests (and a
                                                            # ufunc probe) as JSON

Only a change that bumps ``SCHEMA_VERSION`` re-records the ledger.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

LEDGER = Path(__file__).with_name("report_ledger.json")
SEEDS = (0, 7, 2018)
SAMPLES = 2100  # crosses two block edges

# (theorem, family spec, CampaignConfig keywords): the default families of every
# theorem, then the far ends each engine reaches
CAMPAIGNS = [
    ("two_point", "blaschke", {}),
    ("two_point", "automorphism", {}),
    ("two_point", "mix", {}),
    ("two_point_sharp", "blaschke", {}),
    ("two_point_sharp", "automorphism", {}),
    ("two_point_sharp", "mix", {}),
    ("fixed_point", "fixing", {}),
    ("punctured", "exp", {}),
    ("punctured", "exp:m=40", {}),
    ("punctured", "exp:m=150", {}),
    ("fixed_point", "fixing", {"max_radius": 14.5}),
    ("two_point", "mix", {"min_sep": 2.5}),
    ("two_point", "blaschke:deg=40", {}),
    ("two_point", "realpart", {"samples": 200}),  # every sample violates
]
SAMPLE_INDICES = (0, 1, 1023, 1024, 2099)
DEGREE_SPECS = ("identity", "power:m=2", "power:m=5,theta=1.3", "exp:m=2,c=0.5",
                "exp:m=7,c=1.5", "power:m=2|exp:m=3,c=0.2")
BUDGETS = ("inv_square", "inv_cube", "inv_power:p=1.5")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _name(theorem: str, family: str, kwargs: dict) -> str:
    return " ".join([theorem, family] + [f"{k}={v}" for k, v in sorted(kwargs.items())])


def digests() -> dict:
    """Every ledger entry's name and the SHA-256 of its bytes."""
    from hypbound import CampaignConfig, ModelPoint, run_campaign, run_sample
    from hypbound.cli import parse_family_spec, parse_map_spec
    from hypbound.covering import degree_contour
    from hypbound.harness import convergence_demo, counterexample_demo, halfplane_growth
    from hypbound.report import dumps

    out = {}
    for theorem, spec, kwargs in CAMPAIGNS:
        family, params = parse_family_spec(spec)
        given = {"samples": SAMPLES, "family_params": params, **kwargs}
        for seed in SEEDS:
            cfg = CampaignConfig(theorem, family, seed=seed, **given)
            name = f"campaign {_name(theorem, spec, kwargs)} seed={seed}"
            out[name] = _sha(run_campaign(cfg).to_json(include_timing=False))
        cfg = CampaignConfig(theorem, family, seed=7, **given)
        replays = [run_sample(cfg, i).to_dict() for i in SAMPLE_INDICES if i < cfg.samples]
        out[f"run_sample {_name(theorem, spec, kwargs)} seed=7"] = _sha(dumps(replays))
    for spec in DEGREE_SPECS:
        out[f"degree {spec}"] = _sha(json.dumps(degree_contour(parse_map_spec(spec)).to_dict()))
    out["halfplane"] = _sha(json.dumps(halfplane_growth([10, 100, 1000, 10000]), indent=2))
    out["counterexample"] = _sha(counterexample_demo().to_json(include_timing=False))
    for budget in BUDGETS:
        rows = convergence_demo(budget, ModelPoint.disc(0.3 + 0.5j))
        out[f"convergence {budget}"] = _sha(json.dumps(rows, indent=2))
    return out


def ufunc_probe() -> str:
    """The SHA-256 of the bits of the ufuncs the batch reads, on 10^5 fixed
    inputs: it changes when numpy dispatches them to other code."""
    import numpy as np

    x = np.random.default_rng(0).random(10 ** 5)
    w = (0.9 * x) * np.exp(1j * (6.0 * x[::-1]))
    values = (np.arctanh(0.99 * x), np.arcsinh(10.0 * x), np.log(x), np.exp(5.0 * x),
              np.sinh(3.0 * x), np.tanh(4.0 * x), np.angle(w), np.exp(w), np.abs(w))
    return hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest()


def changed(recorded: dict, found: dict) -> list:
    """The names of the entries whose digests differ, or that one side lacks."""
    return sorted(k for k in recorded.keys() | found.keys() if recorded.get(k) != found.get(k))


def main(argv: list) -> int:
    found = digests()
    if "--json" in argv:
        print(json.dumps({"ufuncs": ufunc_probe(), "digests": found}))
        return 0
    if "--record" in argv:
        LEDGER.write_text(json.dumps(found, sort_keys=True, indent=2) + "\n")
        print(f"recorded {len(found)} entries in {LEDGER}")
        return 0
    names = changed(json.loads(LEDGER.read_text()), found)
    for name in names:
        print(f"changed: {name}")
    print(f"{len(found) - len(names)} of {len(found)} entries unchanged")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
