"""Run workloads over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...] [--out FILE] [--compare FILE]

For each workload it makes one untraced run per seed and prints, for every
end-to-end metric, the median and the quartile spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) over
the median.  Beside ``op_p50_s``, which is in reference seconds, it prints
the spread of the median wall op time, to show what the calibration takes
out.  Then it makes one traced run on the first seed and prints
each layer's share of the traced op time.  With ``--compare`` it prints
how far each median moved from an earlier results file, and with ``--out``
everything goes into a JSON results file as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import UNITS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "info": info, **result, "values": {k: m["value"] for k, m in result["metrics"].items()}}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def layer_shares(layers: dict) -> dict:
    """Each per-op self time over the traced op time."""
    op_s = layers["bench.op_s"]
    return {
        k: v / op_s
        for k, v in layers.items()
        if UNITS[k] == "s/op" and k not in ("bench.op_s", "trace.overhead_s") and v > 0.0
    }


def compare(first: dict, second: dict, metrics: dict) -> dict:
    """Change of each end-to-end median from an earlier results file.

    A change counts as worse when it goes the metric's bad way by more
    than its bound, which is the test a change to the program must pass.
    """
    out = {}
    for name, now in second["workloads"].items():
        before = first["workloads"].get(name)
        if before is None:
            continue
        for k, m in metrics.items():
            a, b = before["end_to_end"][k]["median"], now["end_to_end"][k]["median"]
            change = (b - a) / a if a else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else change < -m["bound"]
            out[f"{name}/{k}"] = {"first": a, "second": b, "change": change, "worse_than_bound": worse}
            flag = "  (worse by more than the bound)" if worse else ""
            print(f"{name:17s} {k:12s} {a:.6g} -> {b:.6g}  {change:+.3f}  bound {m['bound']}{flag}")
    return out


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, help="an earlier results file to compare the medians with")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    report = {"run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, 0) for seed in args.seeds]
        e2e = {k: summarize([r["values"][k] for r in runs]) for k in bounds}
        print(f"{name}: correct {all(r['correct'] for r in runs)}, failed {sum(r['failed'] for r in runs)}")
        for k, s in e2e.items():
            flag = ""
            if s["spread"] > bounds[k]:
                flag = "  (spread above the bound)"
            elif s["spread"] >= bounds[k] / 3:
                flag = "  (spread above a third of the bound)"
            print(f"  {k:14s} median {s['median']:.6g}  spread {s['spread']:.4f}  bound {bounds[k]}{flag}")
        wall = summarize([statistics.median(r["info"]["op_seconds"]) for r in runs])
        print(f"  {'(wall op p50)':14s} median {wall['median']:.6g}  spread {wall['spread']:.4f}")
        traced = run_once(name, args.seeds[0], 1)
        shares = layer_shares(traced["values"])
        print(f"  traced: op {traced['values']['bench.op_s']:.4g} s, overhead {traced['values']['trace.overhead_s']:.4g} s/op")
        for k, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"    {k:28s} {share:7.2%}")
        report["environment"] = runs[0]["info"]["environment"]
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "ops": [r["info"]["ops"] for r in runs],
            "end_to_end": e2e,
            "wall_op_p50_s": wall,
            "per_layer": traced["values"],
            "layer_shares": shares,
        }
    # ROADMAP's single-run figures, checked from the spans.
    done = report["workloads"]
    checks = {}
    if "channel-optimize" in done:
        checks["factorization share of a 96x72 solve (ROADMAP: about 0.95)"] = done["channel-optimize"]["per_layer"]["stokes.factor_share"]
    if "valley-optimize" in done:
        checks["kernel-build share of valley optimize (ROADMAP: about 0.77)"] = done["valley-optimize"]["layer_shares"].get("metropolis.kernel_s", 0.0)
    for k, v in checks.items():
        print(f"{k}: {v:.3f}")
    report["roadmap_checks"] = checks
    if args.compare:
        report["compared_with"] = compare(json.loads(args.compare.read_text()), report, {m["name"]: m for m in BENCHMARK["end_to_end"]})
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
