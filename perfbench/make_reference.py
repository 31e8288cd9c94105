"""Store reference outputs that later runs are checked against.

    python3 perfbench/make_reference.py <workload> [<workload> ...]

Runs every input the workload lists in ``reference_inputs`` at the current
commit and writes ``perfbench/reference/<workload>.json``, keyed by input.
An op whose own checks fail is not stored, and the script exits 1.
"""

import sys

import run
import workloads


def main(names) -> int:
    run.pin_blas_threads()
    status = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        state = workload.setup()
        health = run.Health()
        stored = {}
        with run.Patches() as patches:
            health.install(patches)
            for inp in workload.reference_inputs():
                health.reset()
                out = workload.summarize(state, inp, workload.call(state, inp)())
                problems = workload.check(inp, out) + health.problems
                if problems:
                    print(f"{name}: {inp} failed: {problems}", file=sys.stderr)
                    status = 1
                    continue
                stored[workloads.input_key(inp)] = out
        path = workloads.reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(workloads.dump_reference(stored))
        print(f"{name}: {len(stored)} reference outputs -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
