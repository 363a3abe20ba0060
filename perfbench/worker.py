"""One round of one workload, in a fresh process.

Run by ``perfbench/run.py``; prints one JSON line with the round's
timings, op records and, when traced, its spans and counters.

    python3 perfbench/worker.py --workload cf_deep --seed 3 --tmp DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    # set-up: importing the package and making the inputs
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import numpy as np

    import euler_spectra.cli  # noqa: F401
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size, args.wrong_reference)
    setup_s = time.perf_counter() - start
    rec = workloads.Recorder(args.tmp)
    if args.setup_only:
        rec.calibrate(workloads.EDGE_CAL_UNITS)
        print(json.dumps({"setup_s": setup_s, "cal_unit_s": statistics.mean(u[1] for u in rec.units)}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with rec.sampling():
        workloads.WORKLOADS[args.workload](rec, inputs)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.unpatch()
    # the op list's own time, without the calibration units run inside it
    inside = rec.units_between(wall0, wall1)
    wall_s = wall1 - wall0 - sum(u[1] for u in inside)
    cpu_s = cpu1 - cpu0 - sum(u[2] for u in inside)
    if len(inside) < workloads.LOCAL_CAL_UNITS:  # a round too short to time itself
        rec.calibrate(workloads.EDGE_CAL_UNITS)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cal_unit_s": statistics.mean(u[1] for u in rec.units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rec.ops,
        "answers": rec.answers,
        "traced": tracer is not None,
        "spans": tracer.summary() if tracer else {},
        "counts": dict(tracer.counts) if tracer else {},
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
