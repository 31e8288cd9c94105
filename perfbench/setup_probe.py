"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <spawn time> <kernel passes>

The spawn time is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so the set-up time covers
interpreter start, imports, config load and backend construction.  After
the set-up the probe times the calibration kernel, so the parent can turn
the set-up time into reference seconds.  It prints one JSON line:
``{"setup_s": ..., "kernel_s": [...]}``.
"""

import json
import sys
import time

import workloads


def main() -> int:
    name, t_spawn, passes = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    workloads.WORKLOADS[name].setup()
    setup_s = time.monotonic() - t_spawn
    import speed

    kernel = speed.Kernel()
    print(json.dumps({"setup_s": setup_s, "kernel_s": [kernel() for _ in range(passes)]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
