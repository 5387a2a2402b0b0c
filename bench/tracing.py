"""Span tracing for the traced benchmark run.

The tracer wraps public functions and methods of ``hypbound`` at each module
boundary, under the name the calling module sees them by (``dist`` as
``hypbound.bounds`` sees it, ``Mobius.apply_value`` on the class, ...).
Spans stay in memory as compact columns and are written out at the end.
A target that a later version of the package no longer has is recorded as
absent: it gets 0 calls and the run goes on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from time import perf_counter

# (owner, attribute, span name). The owner is a module, or "module:Class"
# for a method. "_RUNNERS" is the harness's per-theorem sample runner table:
# each entry is wrapped so that its span carries the sample index.
TARGETS = (
    ("hypbound.harness", "derive_seeds", "harness.derive_seeds"),
    ("hypbound.harness", "dist", "models.dist"),
    ("hypbound.harness", "sample_map", "holomaps.sample_map"),
    ("hypbound.harness", "evaluate", "holomaps.evaluate"),
    ("hypbound.harness", "build_disc_automorphism", "mobius.build_disc_automorphism"),
    ("hypbound.harness", "check_two_point", "bounds.check.two_point"),
    ("hypbound.harness", "check_fixed_point", "bounds.check.fixed_point"),
    ("hypbound.harness", "check_punctured", "bounds.check.punctured"),
    ("hypbound.bounds", "dist", "models.dist"),
    ("hypbound.bounds", "density_punctured", "models.density_punctured"),
    ("hypbound.bounds", "evaluate", "holomaps.evaluate"),
    ("hypbound.bounds", "declared_degree", "holomaps.declared_degree"),
    ("hypbound.bounds", "punctured_dist", "covering.punctured_dist"),
    ("hypbound.covering", "punctured_dist", "covering.punctured_dist"),
    ("hypbound.holomaps", "build_disc_automorphism", "mobius.build_disc_automorphism"),
    ("hypbound.mobius:Mobius", "apply_value", "mobius.apply_value"),
)
RUNNER_TABLE = ("hypbound.harness", "_RUNNERS", "harness.sample")

CAMPAIGN = "harness.campaign"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans (name, start, end, parent, sample id) while installed."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        # one entry per span, in the order spans open; name is an index into names
        self.name = array("l")
        self.parent = array("l")
        self.sample = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._sample_id = -1
        self._installed = None
        self.absent: list = []
        # separation checks: harness-side dist calls, and those that met min_sep
        self.min_sep = 0.0
        self.sep_calls = 0
        self.sep_accepted = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.sample.append(self._sample_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, sample_arg=None, on_result=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev = tracer._sample_id
            if sample_arg is not None:
                tracer._sample_id = args[sample_arg]
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._sample_id = prev
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def open_campaign(self, min_sep: float) -> int:
        """Open a campaign root span; only spans under one are aggregated."""
        self.min_sep = min_sep
        return self.open(self.name_id(CAMPAIGN))

    def _count_separation(self, d: float) -> None:
        self.sep_calls += 1
        if d >= self.min_sep:
            self.sep_accepted += 1

    def _patches(self) -> list:
        """(setter, owner, key, original, wrapper) for every target present."""
        patches = []
        for owner, attr, name in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                self.absent.append(f"{owner}.{attr}")
                self.name_id(name)
                continue
            hook = self._count_separation if (owner, attr) == ("hypbound.harness", "dist") else None
            patches.append((setattr, obj, attr, fn, self._wrap(fn, name, on_result=hook)))
        owner, attr, name = RUNNER_TABLE
        table = getattr(_resolve(owner), attr, None)
        if not isinstance(table, dict):
            self.absent.append(f"{owner}.{attr}")
            self.name_id(name)
        else:
            for key, fn in table.items():
                patches.append((dict.__setitem__, table, key, fn,
                                self._wrap(fn, name, sample_arg=1)))
        return patches

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._patches()
        for setter, obj, key, _, wrapper in self._installed:
            setter(obj, key, wrapper)

    def uninstall(self) -> None:
        for setter, obj, key, original, _ in reversed(self._installed or ()):
            setter(obj, key, original)

    def aggregate(self) -> dict:
        """Per span name: calls and self time in seconds, over the spans that
        sit under a campaign root span. Self time is the span's duration
        minus the durations of its direct children."""
        n = len(self.name)
        child = array("d", [0.0]) * n
        root = array("l", [0]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        campaign = self._ids.get(CAMPAIGN, -1)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            if self.name[root[i]] != campaign:
                continue
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,sample,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.sample[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
