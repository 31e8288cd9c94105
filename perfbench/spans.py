"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped program function: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started
(its parent), the run id, and a few counts taken from the call's arguments
or result.  Spans stay in memory while the workload runs and are written
out once at the end.

Functions are wrapped at the module-level names through which the program
calls them (``mesopt.reduction.value_fixed_point``, not
``mesopt.value.value_fixed_point``), so the span sits on the layer
boundary the program actually crosses.  A target that no longer exists is
skipped without an error, so a later change that removes a call site (for
example the full-matrix ``splu``) only drops that span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path


class SpanRecorder:
    """Nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": sid, "name": name, "parent": parent, "start": time.perf_counter()})
        self._open.append(sid)
        return sid

    def end(self, sid: int, **counts) -> None:
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        if counts:
            span["counts"] = counts
        popped = self._open.pop()
        if popped != sid:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": self.run_id, **s}) + "\n")


def _resolve(module: str, attr: str):
    """(owner, name) for a dotted attribute below a module, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Patches:
    """Wrappers installed on module attributes, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> bool:
        found = _resolve(module, attr)
        if found is None:
            return False
        owner, name = found
        original = getattr(owner, name)
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, name, original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# Counts each span takes from its call: fn(args, kwargs, result) -> dict.
def _lu_counts(args, kwargs, lu):
    return {"nnz": int(lu.nnz)}


def _solve_counts(args, kwargs, field):
    return {"converged": bool(field.converged), "residual": float(field.residual)}


def _kernel_counts(args, kwargs, model):
    return {"rows": len(model.states)}


def _fixed_point_counts(args, kwargs, table):
    neighborhood = args[1] if len(args) > 1 else kwargs["neighborhood"]
    return {"iterations": table.iterations, "converged": bool(table.converged), "states": neighborhood.size}


def _walk_counts(args, kwargs, stats):
    return {"steps": sum(stats.steps), "hits": sum(stats.hits), "walks": len(stats.steps)}


def _run_counts(args, kwargs, trace):
    requested = sum(2 + len(c.sample_points) for c in trace.cycles)
    return {"cycles": len(trace.cycles), "simulations": trace.total_simulations, "requested": requested}


# (span name, module, attribute below it, counts).  The benchmark itself
# calls run_optimization and hitting_time_experiment through these same
# module attributes, so its own calls are traced too.
TARGETS = (
    ("cli.main", "mesopt.cli", "main", None),
    ("runconfig.load", "mesopt.cli", "load_config", None),
    ("csvio.write", "mesopt.cli", "write_csv", None),
    ("reduction.run", "mesopt.cli", "run_optimization", _run_counts),
    ("reduction.run", "mesopt.reduction", "run_optimization", _run_counts),
    ("surrogate.fit", "mesopt.reduction", "fit_surrogate", None),
    ("value.fixed_point", "mesopt.reduction", "value_fixed_point", _fixed_point_counts),
    ("metropolis.kernel", "mesopt.value", "transition_matrix", _kernel_counts),
    ("value.power_sum", "mesopt.value", "discounted_power_sum", None),
    ("metropolis.walk", "mesopt.metropolis", "hitting_time_experiment", _walk_counts),
    ("objectives.components", "mesopt.objectives", "CountingObjective.components", None),
    ("geometry.build_airfoil", "mesopt.objectives", "build_airfoil", None),
    ("stokes.solve", "mesopt.objectives", "solve_stokes", _solve_counts),
    ("stokes.factor", "mesopt.stokes", "spla.splu", _lu_counts),
    ("stokes.factor", "mesopt.stokes", "splu", _lu_counts),
    ("stokes.sample_line", "mesopt.objectives", "sample_line", None),
)


def install_spans(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every target that exists."""
    for name, module, attr, counts in TARGETS:

        def make(original, name=name, counts=counts):
            def traced(*args, **kwargs):
                sid = recorder.begin(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    recorder.end(sid, **(counts(args, kwargs, result) if counts and result is not None else {}))

            return traced

        patches.wrap(module, attr, make)


UNITS = {
    "stokes.solve_s": "s/op",
    "stokes.factor_s": "s/op",
    "stokes.factor_share": "ratio",
    "stokes.lu_nnz": "count",
    "stokes.residual_max": "rel",
    "stokes.unconverged": "count",
    "geometry.build_airfoil_s": "s/op",
    "stokes.sample_line_s": "s/op",
    "objectives.evals": "count/op",
    "objectives.self_s": "s/op",
    "metropolis.kernel_s": "s/op",
    "metropolis.kernels": "count/op",
    "metropolis.kernel_rows": "count/op",
    "value.fixed_point_s": "s/op",
    "value.power_sum_s": "s/op",
    "value.iterations": "count/op",
    "value.converged_share": "ratio",
    "grid.box_states": "count",
    "metropolis.walk_s": "s/op",
    "metropolis.walk_steps": "count/op",
    "metropolis.steps_per_s": "1/s",
    "metropolis.hit_rate": "ratio",
    "surrogate.fit_s": "s/op",
    "surrogate.fits": "count/op",
    "reduction.self_s": "s/op",
    "reduction.cycles": "count/op",
    "reduction.gt_reuse": "ratio",
    "runconfig.load_s": "s/op",
    "csvio.write_s": "s/op",
    "cli.self_s": "s/op",
    "bench.self_s": "s/op",
    "bench.op_s": "s/op",
    "trace.accounted_share": "ratio",
    "trace.overhead_s": "s/op",
    "bench.fail_rate": "ratio",
}


#: Figures left out of the accounted time: the op time itself, and the self
#: time of the spans an op enters through (the benchmark's op span, the
#: command, the optimization loop).  That self time holds whatever code
#: the named layers below them do not wrap.
ENTRY_SELF = ("bench.op_s", "bench.self_s", "cli.self_s", "reduction.self_s")


def layer_metrics(recorder: SpanRecorder, n_ops: int) -> dict[str, float]:
    """Per-layer figures from the spans of n_ops traced ops.

    Every figure in ``s/op`` except ``bench.op_s`` (the traced op time)
    and ``trace.overhead_s`` is self time in seconds per op, so these
    figures add up to ``bench.op_s``.  ``trace.accounted_share`` is the
    part of it that the layers below the entry points (``ENTRY_SELF``)
    account for.
    """
    own = recorder.self_times()
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, list[dict]] = {}
    for s, t in zip(recorder.spans, own):
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + t
        total_s[s["name"]] = total_s.get(s["name"], 0.0) + s["end"] - s["start"]
        calls.setdefault(s["name"], []).append(s.get("counts", {}))

    def per_op(name):
        return self_s.get(name, 0.0) / n_ops

    def count(name, key=None):
        rows = calls.get(name, [])
        return float(len(rows) if key is None else sum(r.get(key, 0) for r in rows))

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls.get("stokes.solve", [])
    factors = calls.get("stokes.factor", [])
    fixed_points = calls.get("value.fixed_point", [])
    op_s = total_s.get("bench.op", 0.0) / n_ops
    out = {
        "stokes.solve_s": per_op("stokes.solve"),
        "stokes.factor_s": per_op("stokes.factor"),
        "stokes.factor_share": ratio(total_s.get("stokes.factor", 0.0), total_s.get("stokes.solve", 0.0)),
        "stokes.lu_nnz": ratio(count("stokes.factor", "nnz"), len(factors)),
        "stokes.residual_max": max((r["residual"] for r in solves), default=0.0),
        "stokes.unconverged": float(sum(1 for r in solves if not r["converged"])),
        "geometry.build_airfoil_s": per_op("geometry.build_airfoil"),
        "stokes.sample_line_s": per_op("stokes.sample_line"),
        "objectives.evals": count("objectives.components") / n_ops,
        "objectives.self_s": per_op("objectives.components"),
        "metropolis.kernel_s": per_op("metropolis.kernel"),
        "metropolis.kernels": count("metropolis.kernel") / n_ops,
        "metropolis.kernel_rows": count("metropolis.kernel", "rows") / n_ops,
        "value.fixed_point_s": per_op("value.fixed_point"),
        "value.power_sum_s": per_op("value.power_sum"),
        "value.iterations": count("value.fixed_point", "iterations") / n_ops,
        "value.converged_share": ratio(count("value.fixed_point", "converged"), len(fixed_points)),
        "grid.box_states": ratio(count("value.fixed_point", "states"), len(fixed_points)),
        "metropolis.walk_s": per_op("metropolis.walk"),
        "metropolis.walk_steps": count("metropolis.walk", "steps") / n_ops,
        "metropolis.steps_per_s": ratio(count("metropolis.walk", "steps"), total_s.get("metropolis.walk", 0.0)),
        "metropolis.hit_rate": ratio(count("metropolis.walk", "hits"), count("metropolis.walk", "walks")),
        "surrogate.fit_s": per_op("surrogate.fit"),
        "surrogate.fits": count("surrogate.fit") / n_ops,
        "reduction.self_s": per_op("reduction.run"),
        "reduction.cycles": count("reduction.run", "cycles") / n_ops,
        "reduction.gt_reuse": 1.0 - ratio(count("reduction.run", "simulations"), count("reduction.run", "requested"))
        if calls.get("reduction.run")
        else 0.0,
        "runconfig.load_s": per_op("runconfig.load"),
        "csvio.write_s": per_op("csvio.write"),
        "cli.self_s": per_op("cli.main"),
        "bench.self_s": per_op("bench.op"),
        "bench.op_s": op_s,
    }
    layer_s = sum(v for k, v in out.items() if UNITS[k] == "s/op" and k not in ENTRY_SELF)
    out["trace.accounted_share"] = ratio(layer_s, op_s)
    if not all(math.isfinite(v) for v in out.values()):
        raise ValueError("non-finite layer metric")
    return out
