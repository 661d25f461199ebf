"""One benchmark set-up in a fresh interpreter; prints its phase times.

run.py starts this several times per run and reports the median wall time
as ``setup_s``:  python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import environment


def main() -> None:
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    environment.prepare()
    t0 = perf_counter()
    import workloads
    t1 = perf_counter()
    wl = workloads.WORKLOADS[workload](seed, scratch)
    wl.build_inputs()
    t2 = perf_counter()
    wl.warm_up()
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1,
                      "warmup_s": t3 - t2}))


if __name__ == "__main__":
    main()
