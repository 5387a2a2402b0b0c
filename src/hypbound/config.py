"""Campaign configs and the ranges they are validated against.

This module imports only ``models`` and ``errors``: building and checking a
``CampaignConfig`` loads no map, bound, report or harness code, and no numpy.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Optional

from .errors import UsageError
from .models import Frozen, disc_radius_limit

DEFAULT_TOLERANCE = 1e-9

# the defaults of CampaignConfig, which the CLI's options share
DEFAULT_MIN_SEP = 0.1
DEFAULT_MAX_RADIUS = 6.0

# realpart's base points are uniform in (-REAL_BASE, REAL_BASE)
REAL_BASE = 0.9

# the theorems a campaign checks: the keys of harness._RUNNERS and batch._RUNNERS,
# and the CLI's --theorem choices
THEOREMS = frozenset({"two_point", "two_point_sharp", "fixed_point", "punctured"})

_TWO_POINT = {"two_point", "two_point_sharp"}

# family -> (the theorems it drives, the family_params it takes and their defaults,
# how many child seeds of derive_seeds its runners read: mix alone reads 2 and 3)
_FAMILIES = {
    "blaschke": (_TWO_POINT, {"max_degree": 5}, 2),
    "automorphism": (_TWO_POINT, {}, 2),
    "mix": (_TWO_POINT, {"max_degree": 5}, 4),
    "realpart": (_TWO_POINT, {}, 2),
    "fixing": ({"fixed_point"}, {"max_degree": 4}, 2),
    "exp": ({"punctured"}, {"max_power": 4, "max_decay": 2.0}, 2),
}

# the type of each sampler parameter, the range its values must lie in, and
# that range in words
_PARAM_RANGES = {
    # a Blaschke sample draws up to 2 max_degree + 1 doubles and builds a zero per degree:
    # the bound keeps one sample to milliseconds
    "max_degree": (int, lambda v: 1 <= v <= 10 ** 4, "in [1, 10000]"),
    # numpy draws the power as an int64, which the bound keeps it within; base
    # point redraws already run out at a few hundred (exp:m=400 in the README)
    "max_power": (int, lambda v: 1 <= v <= 10 ** 4, "in [1, 10000]"),
    "max_decay": (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "eps": (float, lambda v: 0.0 < v < math.inf, "finite and > 0"),
}


def sampler_param(params: dict, key: str):
    """``params[key]`` as its type and within its range; a value out of
    range is a UsageError."""
    convert, in_range, text = _PARAM_RANGES[key]
    value = convert(params[key])
    if not in_range(value):
        raise UsageError(f"malformed {key}={value!r}: must be {text}")
    return value


def _check_int(key: str, value, least: int) -> None:
    """Refuse ``value`` unless it is an int, not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise UsageError(f"malformed {key}={value!r}: must be an integer >= {least}")


class CampaignConfig(Frozen):
    """A campaign: the theorem, the family, how many samples of which seed,
    and the sampling limits, each validated on construction. ``params`` is
    the family's parameters, those given else its defaults, as the samplers'
    types."""

    __match_args__ = _fields = ("theorem", "family", "samples", "seed", "family_params",
                                "min_sep", "max_radius", "tolerance")
    __slots__ = (*__match_args__, "params")

    def __init__(self, theorem: str, family: str, samples: int, seed: int,
                 family_params: Optional[dict] = None, min_sep: float = DEFAULT_MIN_SEP,
                 max_radius: float = DEFAULT_MAX_RADIUS,
                 tolerance: float = DEFAULT_TOLERANCE) -> None:
        # a copy: a caller's later edit reaches neither the report nor the draws
        family_params = {} if family_params is None else dict(family_params)
        if theorem not in THEOREMS:
            raise UsageError(f"unknown theorem {theorem!r}")
        theorems, defaults, _ = _FAMILIES.get(family, (set(), {}, 0))
        if theorem not in theorems:
            raise UsageError(f"family {family!r} cannot drive theorem {theorem!r}")
        extra = sorted(set(family_params).difference(defaults))
        if extra:
            raise UsageError(f"family {family!r} takes no parameter {extra[0]!r}")
        given = {key: sampler_param(family_params, key) for key in family_params}
        _check_int("samples", samples, 1)
        _check_int("seed", seed, 0)
        for key, value in (("min_sep", min_sep), ("max_radius", max_radius),
                           ("tolerance", tolerance)):
            if not 0.0 < value < math.inf:
                raise UsageError(f"malformed {key}={value!r}: must be finite and > 0")
        # the punctured sampler caps its radius at 4, measures no disc distance
        # and draws no separated pair
        if theorem != "punctured":
            limit = disc_radius_limit(tolerance)
            if max_radius > limit:
                raise UsageError(
                    f"max_radius {max_radius:g} is above {limit:.4g}, beyond which disc "
                    f"distances may err by more than the tolerance {tolerance:g}")
            # the farthest a sampled point can lie from a first point at the origin
            reach = 2.0 * math.atanh(REAL_BASE) if family == "realpart" else max_radius / 2.0
            if min_sep > reach:
                raise UsageError(f"malformed min_sep={min_sep!r}: must be at most {reach!r}")
        self._init(theorem, family, samples, seed, family_params, min_sep, max_radius, tolerance)
        # read-only: no caller's edit reaches the config
        object.__setattr__(self, "params", MappingProxyType({**defaults, **given}))

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self._fields},
                "family_params": dict(sorted(self.family_params.items()))}
