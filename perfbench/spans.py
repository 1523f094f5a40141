"""Spans around the calls into each mcp_iso module, recorded from outside.

The traced run replaces module attributes (``mcp_iso.search.certify_bound``,
``mcp_iso.profile.invert_monotone``, ...) with wrappers that open a span,
call the original and close the span, and swaps each input density for a
subclass whose ``__call__`` and ``integral`` do the same.  Spans are kept in
memory as parallel arrays and written out once, when the run ends.

A span has a name, a start, an end, a parent span and the operation it
belongs to; ``value`` carries the count measured at that boundary (sets
examined, samples used, inner function evaluations, peak allocation).
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from array import array

import numpy as np

# Per-layer metrics the traced run reports, per operation: name -> (span,
# statistic, unit).  "self" sums span self time, "calls" counts spans,
# "value" sums span values, "max" takes the largest span value.
LAYER_METRICS = {
    "search.brute_force_profile.self_s": ("search.brute_force_profile", "self", "s"),
    "search.certify_bound.self_s": ("search.certify_bound", "self", "s"),
    "search.sets_examined": ("search.brute_force_profile", "value", "count"),
    "density.eval.calls": ("density.eval", "calls", "count"),
    "density.eval.self_s": ("density.eval", "self", "s"),
    "density.integral.calls": ("density.integral", "calls", "count"),
    "density.integral.self_s": ("density.integral", "self", "s"),
    "density.check_mcp_density.self_s": ("density.check_mcp_density", "self", "s"),
    "density.minimal_mcp_dimension.self_s": ("density.minimal_mcp_dimension", "self", "s"),
    "density.check.peak_alloc_mib": ("density.check.alloc", "max", "MiB"),
    "density.samples_used": ("density.check_mcp_density", "value", "count"),
    "numerics.unit_ball_volume.calls": ("numerics.unit_ball_volume", "calls", "count"),
    "numerics.invert_monotone.calls": ("numerics.invert_monotone", "calls", "count"),
    "numerics.invert_monotone.g_evals": ("numerics.invert_monotone", "value", "count"),
    "numerics.invert_monotone.self_s": ("numerics.invert_monotone", "self", "s"),
    "profile.profile_mcp.self_s": ("profile.profile_mcp", "self", "s"),
    "cli.main.self_s": ("cli.main", "self", "s"),
}


class Tracer:
    """In-memory span store; single-threaded, spans strictly nested."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self.current_op = -1

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        """fn wrapped in a span; value_of(result) fills the span's value."""
        nid = self.name_index(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    self.value[idx] = value_of(result)
                return result
            finally:
                self.close(idx)

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def per_op(self, n_ops: int) -> dict:
        """Every LAYER_METRICS entry for each operation 0 .. n_ops - 1."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out = {}
        for metric, (span, stat, _) in LAYER_METRICS.items():
            sel = (a["op"] >= 0) & (a["name_id"] == self._ids.get(span, -1))
            op = a["op"][sel]
            if stat == "self":
                values = np.bincount(op, weights=self_time[sel], minlength=n_ops)
            elif stat == "calls":
                values = np.bincount(op, minlength=n_ops).astype(float)
            elif stat == "value":
                values = np.bincount(op, weights=a["value"][sel], minlength=n_ops)
            else:  # "max"
                values = np.zeros(n_ops)
                np.maximum.at(values, op, a["value"][sel])
            out[metric] = values
        return out


def _counting(fn, counter: list):
    def counted(x):
        counter[0] += 1
        return fn(x)

    return counted


def instrument(tracer: Tracer) -> None:
    """Replace the module attributes each layer is called through."""
    from mcp_iso import cli, density, numerics, profile, search

    ubv = tracer.wrap("numerics.unit_ball_volume", numerics.unit_ball_volume)
    for module in (numerics, density, profile, search):
        module.unit_ball_volume = ubv

    inner_invert = numerics.invert_monotone
    nid = tracer.name_index("numerics.invert_monotone")

    def invert_monotone(g, *args, **kwargs):
        counter = [0]
        idx = tracer.open(nid)
        try:
            return inner_invert(_counting(g, counter), *args, **kwargs)
        finally:
            tracer.value[idx] = counter[0]
            tracer.close(idx)

    numerics.invert_monotone = invert_monotone
    profile.invert_monotone = invert_monotone

    traced_profile = tracer.wrap("profile.profile_mcp", profile.profile_mcp)
    profile.profile_mcp = traced_profile
    cli.profile_mcp = traced_profile

    traced_bfp = tracer.wrap(
        "search.brute_force_profile",
        search.brute_force_profile,
        value_of=lambda outcome: outcome.sets_examined,
    )
    search.brute_force_profile = traced_bfp
    search.certify_bound = tracer.wrap("search.certify_bound", search.certify_bound)

    alloc_id = tracer.name_index("density.check.alloc")

    def with_alloc(fn):
        # tracemalloc runs only inside the check calls; the peak lands on a
        # zero-length "density.check.alloc" span of the same operation.
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                idx = tracer.open(alloc_id)
                tracer.value[idx] = peak / 2**20
                tracer.close(idx)

        return measured

    check = tracer.wrap(
        "density.check_mcp_density",
        density.check_mcp_density,
        value_of=lambda verdict: verdict.samples_used,
    )
    density.check_mcp_density = with_alloc(check)
    mindim = tracer.wrap("density.minimal_mcp_dimension", density.minimal_mcp_dimension)
    density.minimal_mcp_dimension = with_alloc(mindim)

    cli.main = tracer.wrap("cli.main", cli.main)


def traced_density(tracer: Tracer, h):
    """A copy of density h whose point evaluations and integrals are spans."""
    base = type(h)
    methods = {
        "__call__": tracer.wrap("density.eval", base.__call__),
        "integral": tracer.wrap("density.integral", base.integral),
    }
    cls = type("Traced" + base.__name__, (base,), methods)
    return cls(**{f.name: getattr(h, f.name) for f in dataclasses.fields(h)})
