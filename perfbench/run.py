#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload valley-optimize --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median of several fresh processes run between the ops, each timed from
spawn until its backend is built), ops per second, median op time, peak
RSS and ground-truth evaluations per op.  The three times are in reference
seconds: wall time scaled to the machine's reference speed, which a fixed
calibration kernel measures around and during each op (see speed.py); the
wall times are printed beside them.  With ``--trace 1`` it runs every
op twice in a row, untraced and with spans on the program's layer
boundaries, in alternating order, and reports the per-layer metrics plus
the tracing overhead; the spans are written to
``.bench_out/spans/<workload>.jsonl``.

Every op's output is checked (solver convergence, finite and in-range
rewards, the workload's own invariants, and stored reference outputs for
inputs that have them).  An op that raises or fails a check is counted in
``failed`` and makes ``correct`` false.  The run exits 2 without a result
when the checkout has no mesopt sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import workloads
from spans import UNITS, Patches, SpanRecorder, install_spans, layer_metrics

#: BLAS threads for every process the benchmark runs (at most nproc).
BLAS_THREADS = 1
SETUP_PROBES = 11
#: Kernel passes the parent times before each set-up probe (the probe times as many after).
PROBE_KERNEL_PASSES = 3
PROBE_TIMEOUT_S = 60.0
HERE = Path(__file__).resolve().parent


def pin_one_cpu() -> int:
    """Keep the run, its kernel samples and its set-up probes on one CPU.

    The host's CPUs change speed independently, so a kernel sample says
    little about an op that ran on another CPU.  Returns the CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


@dataclass
class OpResult:
    inp: dict
    seconds: float
    ref_seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    evals: int = 0


class Health:
    """Solver and reward outcomes of the current op, from thin wrappers.

    Installed in traced and untraced runs alike: it is how the benchmark
    sees that every solve converged, which the rewards alone do not show.
    """

    def __init__(self):
        self.problems: list[str] = []
        self.evals = 0

    def reset(self) -> None:
        self.problems = []
        self.evals = 0

    def install(self, patches) -> None:
        import numpy as np

        def solve(original):
            def checked(shape, config, *args, **kwargs):
                flow = original(shape, config, *args, **kwargs)
                if not (flow.converged and flow.residual <= config.solver_tol):
                    self.problems.append(f"solve unconverged (residual {flow.residual:.3e})")
                if not all(np.isfinite(a).all() for a in (flow.u1, flow.u2, flow.p)):
                    self.problems.append("non-finite flow field")
                return flow

            return checked

        def components(original):
            def checked(objective, theta):
                r1, r2, r = original(objective, theta)
                self.evals += 1
                if not all(map(np.isfinite, (r1, r2, r))):
                    self.problems.append(f"non-finite reward at {tuple(theta)}")
                elif type(objective).__name__ == "StokesObjective" and not (0.0 <= r1 <= 1.0 and r2 >= 0.0):
                    self.problems.append(f"R1={r1} or R2={r2} out of range at {tuple(theta)}")
                return r1, r2, r

            return checked

        patches.wrap("mesopt.objectives", "solve_stokes", solve)
        patches.wrap("mesopt.objectives", "CountingObjective.components", components)


def run_op(workload, state, inp, health, reference, recorder=None, kernel=None) -> OpResult:
    """Time one op and check its output; an op that raises is a failed op.

    With a calibration kernel the op is also timed in reference seconds;
    its wall time then leaves out the kernel samples taken during it.
    """
    health.reset()
    result = OpResult(inp=inp, seconds=0.0)
    try:
        op = workload.call(state, inp)
        sid = recorder.begin("bench.op") if recorder else None
        sampler = speed.Sampler(kernel) if kernel else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with sampler:
                raw = op()
        finally:
            result.seconds = time.perf_counter() - t0
            if recorder:
                recorder.end(sid)
            if kernel:
                result.seconds -= sampler.busy
                result.ref_seconds = speed.ref_seconds(result.seconds, sampler.samples)
        out = workload.summarize(state, inp, raw)
        result.problems += workload.check(inp, out)
        ref = reference.get(workloads.input_key(inp))
        if ref is not None:
            result.problems += workload.compare(ref, out)
    except Exception as exc:  # the run goes on and counts the failure
        result.problems.append(f"{type(exc).__name__}: {exc}")
    result.problems += health.problems
    result.evals = health.evals
    return result


def run_ops(workload, state, inputs, health, reference, deadline, recorder=None, probes=None, kernel=None):
    """Run ops until, after the first, the deadline has passed.

    With a recorder every input runs twice in a row, untraced and traced, so
    the pair sees the same machine load and their difference is the tracing
    overhead.  Which copy goes first alternates from input to input, so the
    warm caches the second copy finds cancel out of the difference.  With
    set-up probes, those that are due run between ops.  With a calibration
    kernel the untraced ops are timed in reference seconds too.
    Returns (untraced results, traced results).
    """
    plain, traced = [], []

    def run_traced(inp):
        with Patches() as patches:
            install_spans(patches, recorder)
            traced.append(run_op(workload, state, inp, health, reference, recorder))

    for i, inp in enumerate(inputs):
        if plain and time.perf_counter() >= deadline:
            break
        if recorder is not None and i % 2:
            run_traced(inp)
        plain.append(run_op(workload, state, inp, health, reference, kernel=kernel))
        if recorder is not None and not i % 2:
            run_traced(inp)
        if probes is not None:
            probes.poll()
    if probes is not None:
        probes.poll(every=True)
    return plain, traced


class SetupProbes:
    """Set-up times of fresh processes, spread evenly over the measured window.

    Each probe is a process that does only the workload's set-up; its time
    runs from spawn until the backend is built.  The machine's speed drifts
    within a run, so probes taken all at once would see one speed where the
    ops see many.  Spread over the window, set-up time is sampled like the
    op times are.  The parent times the calibration kernel just before a
    probe starts and the probe times it just after its set-up; their median
    turns the probe's wall time into reference seconds.
    """

    def __init__(self, name: str, start: float, seconds: float, kernel):
        self.name = name
        self.kernel = kernel
        self.due = [start + seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.seconds: list[float] = []
        self.ref_seconds: list[float] = []

    def poll(self, every: bool = False) -> None:
        """Run the probes that are due (with ``every``, all that are left)."""
        while self.due and (every or self.due[0] <= time.perf_counter()):
            self.due.pop(0)
            before = [self.kernel() for _ in range(PROBE_KERNEL_PASSES)]
            t_spawn = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), self.name, repr(t_spawn), str(PROBE_KERNEL_PASSES)],
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
                check=True,
            )
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            self.seconds.append(probe["setup_s"])
            self.ref_seconds.append(speed.ref_seconds(probe["setup_s"], before + probe["kernel_s"]))


def environment(seed: int, cpu: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (HERE.parent / ".git").exists():  # a checkout without .git gets no commit, and git looks no further up
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[OpResult], setup_ref_seconds: list[float]) -> dict:
    """Every time in reference seconds; ops per second counts op time only."""
    n = len(results)
    return {
        "setup_s": metric(statistics.median(setup_ref_seconds), "s"),
        "ops_per_s": metric(n / sum(r.ref_seconds for r in results), "1/s"),
        "op_p50_s": metric(statistics.median(r.ref_seconds for r in results), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "simulations": metric(sum(r.evals for r in results) / n, "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cpu = pin_one_cpu()
    pin_blas_threads()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    try:
        state = workload.setup()
    except workloads.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(workload.name)
    env = environment(args.seed, cpu)
    workload.warmup(state)
    kernel = None if args.trace else speed.Kernel()

    health = Health()
    recorder = SpanRecorder(f"{workload.name}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    with Patches() as patches:
        health.install(patches)
        t0 = time.perf_counter()
        probes = None if args.trace else SetupProbes(workload.name, t0, args.seconds, kernel)
        plain, traced = run_ops(
            workload, state, workload.inputs(args.seed), health, reference, t0 + args.seconds, recorder, probes, kernel
        )
    results = plain + traced

    failed = sum(1 for r in results if r.problems)
    for r in results:
        if r.problems:
            print(f"perfbench: op {workloads.input_key(r.inp)} failed: {'; '.join(r.problems[:3])}", file=sys.stderr)

    if args.trace:
        layers = layer_metrics(recorder, len(traced))
        layers["trace.overhead_s"] = (sum(r.seconds for r in traced) - sum(r.seconds for r in plain)) / len(plain)
        layers["bench.fail_rate"] = failed / len(results)
        recorder.write(workloads.OUT / "spans" / f"{workload.name}.jsonl")
        metrics = {k: metric(v, UNITS[k]) for k, v in layers.items()}
    else:
        metrics = end_to_end(plain, probes.ref_seconds)

    print(
        json.dumps(
            {
                "environment": env,
                "ops": len(plain),
                "op_seconds": [r.seconds for r in plain],
                "op_ref_seconds": [r.ref_seconds for r in plain] if kernel else [],
                "setup_seconds": probes.seconds if probes else [],
                "setup_ref_seconds": probes.ref_seconds if probes else [],
            }
        )
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
