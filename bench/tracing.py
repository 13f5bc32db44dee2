"""Spans and counters at the layer boundaries of cvwitness, recorded by
wrapping the program's functions from outside.

A span is (name, start, end, parent, operation id); spans are kept in
memory in flat arrays and written to one JSON file when the run ends. A
span's self time is its duration minus the durations of its direct
children. Nothing is recorded outside an operation, so the benchmark's
own reference computations leave no spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import cvwitness
from cvwitness import covariance, states

# layer -> public functions whose calls are spans; each is replaced in
# every cvwitness module namespace that binds it
FUNCTION_LAYERS = {
    "covariance": (
        "validate_bona_fide",
        "symplectic_eigenvalues",
        "partial_transpose_bob",
        "split_standard",
        "schur_complement",
        "standard_form_reduce_two_mode",
    ),
    "criteria": ("certify",),
    "optimize": (
        "check_unsteerable_ab",
        "check_unsteerable_ba",
        "min_separability_sum_numeric",
        "min_steering_sum_ab_numeric",
        "min_steering_sum_ba_numeric",
        "brute_force_min",
    ),
    "cli": ("main", "render_json"),
}
MINIMIZERS = (
    "optimize.min_separability_sum_numeric",
    "optimize.min_steering_sum_ab_numeric",
    "optimize.min_steering_sum_ba_numeric",
)
LINALG = (
    "eigvalsh", "eigvals", "eigh", "eig", "solve", "det", "slogdet", "svd",
    "inv", "cholesky", "cond", "norm", "qr", "lstsq", "pinv",
)


class Tracer:
    MAX_SPANS = 250_000  # about 10 MB of JSON

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1  # no operation running
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def full(self) -> bool:
        return len(self.start) >= self.MAX_SPANS

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        if self.op_id < 0:
            return fn(*args, **kwargs)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn, on_result=None):
        if on_result is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if self.op_id >= 0:
                    on_result(out, args, kwargs)
                return out
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary; ``uninstall`` restores the originals."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "cvwitness"]
        hooks = {name.split(".")[1]: self._count_minimize for name in MINIMIZERS}
        hooks["brute_force_min"] = self._count_samples
        for layer, fnames in FUNCTION_LAYERS.items():
            home = sys.modules[f"cvwitness.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, hooks.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)
        cm = covariance.CovarianceMatrix
        self._patch(cm, "__init__", self._wrap("covariance.CovarianceMatrix", cm.__init__))
        self._patch(cm, "load", classmethod(self._wrap("cli.load", cm.__dict__["load"].__func__)))
        gs = states.GeneratorSpec
        self._patch(gs, "build", self._wrap("states.GeneratorSpec.build", gs.build))
        for fname in LINALG:
            self._patch(np.linalg, fname, self._wrap(f"numpy.linalg.{fname}", getattr(np.linalg, fname)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _count_minimize(self, result, args, kwargs) -> None:
        self.counters["optimize.minimize.iterations"] += int(result.iterations)
        self.counters["optimize.minimize.restarts"] += int(result.restarts_used)

    def _count_samples(self, result, args, kwargs) -> None:
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        self.counters["optimize.brute_force_min.samples"] += (grid or cvwitness.GridSpec()).samples

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), int(dur[sel].sum()), int(own[sel].sum()))
        return out

    def dump(self, path, meta: dict) -> None:
        t0 = self.start[0] if len(self.start) else 0
        record = {
            **meta,
            "names": self.names,
            "counters": dict(self.counters),
            "spans": {
                "name": self.name.tolist(),
                "start_ns": [t - t0 for t in self.start],
                "end_ns": [t - t0 for t in self.end],
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


COVARIANCE_METRICS = (
    "validate_bona_fide",
    "symplectic_eigenvalues",
    "partial_transpose_bob",
    "split_standard",
    "schur_complement",
    "standard_form_reduce_two_mode",
    "CovarianceMatrix",
)
LINALG_COUNTED = ("eigvalsh", "eigvals", "eigh", "solve", "det", "slogdet", "svd", "inv", "cholesky")

# name -> (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {}
for _f in COVARIANCE_METRICS:
    LAYER_METRICS[f"covariance.{_f}.calls_per_op"] = ("call/op", "lower")
    LAYER_METRICS[f"covariance.{_f}.self_us_per_op"] = ("us/op", "lower")
LAYER_METRICS.update(
    {
        "criteria.certify.self_us_per_op": ("us/op", "lower"),
        "optimize.check_unsteerable_ab.self_us_per_op": ("us/op", "lower"),
        "optimize.check_unsteerable_ba.self_us_per_op": ("us/op", "lower"),
        "optimize.minimize.self_ms_per_solve": ("ms/solve", "lower"),
        "optimize.minimize.iterations_per_solve": ("iter/solve", "lower"),
        "optimize.minimize.restarts_per_solve": ("run/solve", "lower"),
        "optimize.brute_force_min.self_ms_per_op": ("ms/op", "lower"),
        "optimize.brute_force_min.samples_per_s": ("sample/s", "higher"),
        "states.GeneratorSpec.build.self_us_per_op": ("us/op", "lower"),
        "cli.main.self_us_per_op": ("us/op", "lower"),
        "cli.render_json.self_us_per_op": ("us/op", "lower"),
        "cli.load.self_us_per_op": ("us/op", "lower"),
    }
)
for _f in LINALG_COUNTED:
    LAYER_METRICS[f"numpy.linalg.{_f}.calls_per_op"] = ("call/op", "lower")
LAYER_METRICS["numpy.linalg.self_us_per_op"] = ("us/op", "lower")
LAYER_METRICS["trace.overhead_ratio"] = ("ratio", "lower")


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-operation layer figures from one traced phase of ``ops`` operations."""
    totals = defaultdict(lambda: (0, 0, 0), tracer.totals())
    out = {}

    def calls(name):
        return totals[name][0] / ops

    def self_us(name):
        return totals[name][2] / ops / 1e3

    for f in COVARIANCE_METRICS:
        out[f"covariance.{f}.calls_per_op"] = calls(f"covariance.{f}")
        out[f"covariance.{f}.self_us_per_op"] = self_us(f"covariance.{f}")
    for name in ("criteria.certify", "optimize.check_unsteerable_ab", "optimize.check_unsteerable_ba",
                 "states.GeneratorSpec.build", "cli.main", "cli.render_json", "cli.load"):
        out[f"{name}.self_us_per_op"] = self_us(name)
    solves = sum(totals[m][0] for m in MINIMIZERS)
    per_solve = 1.0 / solves if solves else 0.0
    out["optimize.minimize.self_ms_per_solve"] = sum(totals[m][2] for m in MINIMIZERS) / 1e6 * per_solve
    out["optimize.minimize.iterations_per_solve"] = tracer.counters["optimize.minimize.iterations"] * per_solve
    out["optimize.minimize.restarts_per_solve"] = tracer.counters["optimize.minimize.restarts"] * per_solve
    brute_calls, brute_ns, brute_self = totals["optimize.brute_force_min"]
    out["optimize.brute_force_min.self_ms_per_op"] = brute_self / ops / 1e6
    samples = tracer.counters["optimize.brute_force_min.samples"]
    out["optimize.brute_force_min.samples_per_s"] = samples / (brute_ns / 1e9) if brute_ns else 0.0
    for f in LINALG_COUNTED:
        out[f"numpy.linalg.{f}.calls_per_op"] = calls(f"numpy.linalg.{f}")
    out["numpy.linalg.self_us_per_op"] = sum(
        t[2] for name, t in totals.items() if name.startswith("numpy.linalg.")
    ) / ops / 1e3
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in LAYER_METRICS}
