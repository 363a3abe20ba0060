"""Benchmark of euler-spectra: four workloads timed end to end and per layer.

    python3 perfbench/run.py --workload cf_deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the package is imported from ``src/``.
A run starts fresh worker processes one after another (one caller, closed
loop): a few that only set up, then at least two rounds of the workload's
fixed op list, and more for about ``--seconds``.  Each round runs in a new
process, so every round pays the imports, the first LAPACK call and the
triad-table builds that a CLI user pays.  Successive processes are pinned to the usable CPUs
in turn: on a shared host each CPU's speed changes by up to 1.5x from one
few-second stretch to the next, independently of the other CPU, and
alternating gives each run samples of both.  Every time is scaled to a
reference host speed (see "Host speed" in perfbench/README.md), and
metrics are medians over rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer table and reports the
per-layer metrics from the traced rounds.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

See perfbench/README.md for why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("cf_deep", "class_survey", "dynamics", "verify")
SETUP_PROBES = 4  # set-up-only processes per run, besides one per round
MIN_ROUNDS = 2  # so that a median over rounds is never one sample
RUN_LIMIT = 170  # seconds; a run must end within 180
# One BLAS thread: steadier dense times than two (N=800 eigvals measured
# 1.74-1.83 s with one thread against 1.25-1.77 s with two).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Mean time of one calibration unit (workloads.calibration_unit) at the
# reference host speed.  A process whose units took twice as long ran on a
# host half as fast, so its times are halved.
REF_CAL_UNIT_S = 0.0018

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> metric; spans report inclusive time
SPAN_METRICS = {
    "contfrac.find_eigenvalues": "contfrac.find_eigenvalues_s",
    "contfrac.find_eigenvalues_half": "contfrac.find_eigenvalues_half_s",
    "contfrac.mode_amplitudes": "contfrac.mode_amplitudes_s",
    "matrixop.build": "matrixop.build_s",
    "matrixop.truncated_spectrum": "matrixop.truncated_spectrum_s",
    "matrixop.classify_band_distance": "matrixop.classify_band_distance_s",
    "matrixop.detM_eigentest": "matrixop.detM_eigentest_s",
    "matrixop.green_kernel": "matrixop.green_kernel_s",
    "matrixop.resolvent_apply": "matrixop.resolvent_apply_s",
    "subsystem.integrate": "subsystem.integrate_s",
    "subsystem.invariants": "subsystem.invariants_s",
    "euler_core.integrate_euler": "euler_core.integrate_euler_s",
    "euler_core.first_rhs": "euler_core.first_rhs_s",
    "euler_core.conserved": "euler_core.conserved_s",
    "euler_core.jacobian_check": "euler_core.jacobian_check_s",
    "reporting.to_canonical_json": "reporting.to_canonical_json_s",
}
COUNT_METRICS = {
    "contfrac.max_depth": "count",
    "contfrac.seeds": "count",
    "contfrac.quadruples": "count",
    "matrixop.dense_n3": "count",
    "matrixop.isolated": "count",
    "subsystem.rk4_steps": "count",
    "euler_core.rk4_steps": "count",
    "euler_core.modes": "count",
    "reporting.bytes_out": "B",
}
SELF_METRICS = {"lattice.self_s": "lattice.", "cli.self_s": "cli."}
CLI_COMMANDS = ("classes", "eigs-cf", "eigs-matrix", "band", "simulate", "euler-sim")
CHECKS = range(1, 10)


def per_layer_units() -> dict[str, str]:
    units = {metric: "s" for metric in SPAN_METRICS.values()}
    units.update(COUNT_METRICS)
    units.update({metric: "s" for metric in SELF_METRICS})
    units.update({f"cli.{c}_s": "s" for c in CLI_COMMANDS})
    units.update({f"verification.check{i}_s": "s" for i in CHECKS})
    units["verification.failed"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    pass


def scale(r: dict) -> float:
    """Factor that takes a process's measured seconds to reference seconds."""
    return REF_CAL_UNIT_S / r["cal_unit_s"]


def _worker(deadline: float, cpu: int, tmp: str, workload: str, seed: int, size: str, *flags: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EULER_SPECTRA_THREADS")}
    env.update(THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--size", size, "--tmp", tmp, "--cpu", str(cpu), *flags]
    timeout = deadline - time.monotonic()
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"run exceeded {RUN_LIMIT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, size="full", wrong_reference=False):
    """Set-up probes, then rounds for about ``seconds``; returns
    (set-up records of every process, rounds)."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    flags = ["--wrong-reference"] if wrong_reference else []
    deadline = time.monotonic() + RUN_LIMIT
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    try:
        setups = [
            _worker(deadline, next(cpus), tmp, workload, seed, size, "--setup-only", *flags)
            for _ in range(SETUP_PROBES)
        ]
        rounds: list[dict] = []
        start = time.monotonic()
        # after MIN_ROUNDS, start another round while it is expected to end
        # less than half a round after `seconds`
        while len(rounds) < MIN_ROUNDS or (time.monotonic() - start) * (1 + 0.5 / len(rounds)) < seconds:
            traced = ["--trace"] if trace and len(rounds) % 2 == 1 else []
            rounds.append(_worker(deadline, next(cpus), tmp, workload, seed, size, *traced, *flags))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    return setups + rounds, rounds


def end_to_end(setups, rounds) -> dict[str, float]:
    plain = [r for r in rounds if not r["traced"]]

    def med(key, records=plain):
        return statistics.median(r[key] * scale(r) for r in records)

    return {
        "setup_s": med("setup_s", setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "slowest_op_s": slowest_op(plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def slowest_op(rounds) -> float:
    """The largest of the ops' median times: every round runs the same op
    list, so the i-th op of each round is the same call.  An op long enough
    to hold its own calibration units is scaled by them."""

    def scaled(o, r):
        return o["seconds"] * scale(o if o["cal_unit_s"] else r)

    columns = zip(*(r["ops"] for r in rounds))
    return max(statistics.median(scaled(o, r) for o, r in zip(ops, rounds)) for ops in columns)


def measured(setups, rounds) -> str:
    """The unscaled medians and the host speed they were scaled by."""
    plain = [r for r in rounds if not r["traced"]]
    return "measured " + json.dumps(
        {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "cal_unit_s": statistics.median(r["cal_unit_s"] for r in setups),
            "scale_min": min(scale(r) for r in setups),
            "scale_max": max(scale(r) for r in setups),
        }
    )


def _layer_values(r: dict) -> dict[str, float]:
    """Counts as counted, times in reference seconds."""
    spans, counts = r["spans"], r["counts"]
    out = {metric: spans.get(name, {}).get("total_s", 0.0) for name, metric in SPAN_METRICS.items()}
    out.update({metric: counts.get(metric, 0) for metric in COUNT_METRICS})
    for metric, prefix in SELF_METRICS.items():
        out[metric] = sum(row["self_s"] for name, row in spans.items() if name.startswith(prefix))
    out.update({f"cli.{c}_s": spans.get(f"cli.{c}", {}).get("total_s", 0.0) for c in CLI_COMMANDS})
    checks = {o["kind"]: o for o in r["ops"] if o["kind"].startswith("check")}
    out.update({f"verification.check{i}_s": checks.get(f"check{i}", {}).get("seconds", 0.0) for i in CHECKS})
    out["verification.failed"] = sum(not o["ok"] for o in checks.values())
    units = per_layer_units()
    return {metric: value * scale(r) if units[metric] == "s" else value for metric, value in out.items()}


def per_layer(rounds) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    values = [_layer_values(r) for r in traced]
    counts = set(COUNT_METRICS) | {"verification.failed"}
    out = {
        metric: (statistics.median_low if metric in counts else statistics.median)(v[metric] for v in values)
        for metric in values[0]
    }
    plain = [r["wall_s"] * scale(r) for r in rounds if not r["traced"]]
    out["trace.overhead_s"] = statistics.median(r["wall_s"] * scale(r) for r in traced) - statistics.median(plain)
    return out


def layer_table(rounds) -> str:
    """Ops and spans of the first traced round in measured seconds, then
    the metrics."""
    r = next(r for r in rounds if r["traced"])
    ops: dict[str, list[float]] = {}
    for op in r["ops"]:
        ops.setdefault(op["kind"], []).append(op["seconds"])
    lines = [f"{'op':40} {'calls':>7} {'total_s':>10} {'max_s':>10}"]
    for kind, times in ops.items():
        lines.append(f"{kind:40} {len(times):7d} {sum(times):10.4f} {max(times):10.4f}")
    lines += ["", f"{'span':40} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(r["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"{name:40} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    lines.append("")
    units = per_layer_units()
    for metric, value in per_layer(rounds).items():
        lines.append(f"{metric:40} {value:18.6g} {units[metric]}")
    return "\n".join(lines)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "pinning": "processes pinned to each usable CPU in turn",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def report_failures(rounds) -> None:
    """One line per op position of the op list that failed in any round."""
    failed = {}
    for r in rounds:
        for i, op in enumerate(r["ops"]):
            if not op["ok"]:
                failed.setdefault(i, op)
    for i, op in sorted(failed.items()):
        print(f"failed op #{i} {op['kind']}{' (known defect)' if op['known'] else ''}: {op['problem']}")


def bench(args) -> int:
    setups, rounds = run_workload(args.workload, args.seed, args.seconds, args.trace)
    env = environment()
    env.update(rounds[0]["env"])
    env.update({"workload": args.workload, "seed": args.seed, "rounds": len(rounds), "setup_samples": len(setups)})
    print("env " + json.dumps(env, sort_keys=True))
    print(measured(setups, rounds))
    report_failures(rounds)
    ops = [o for r in rounds for o in r["ops"]]
    if args.trace:
        print(layer_table(rounds))
        values, units = per_layer(rounds), per_layer_units()
    else:
        values, units = end_to_end(setups, rounds), END_TO_END
    result = {
        "correct": all(o["ok"] or o["known"] for o in ops),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Tiny-size checks of the harness itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        setups, rounds = run_workload(workload, 0, 0, True, size="tiny")
        got_e2e, got_layer = end_to_end(setups, rounds), per_layer(rounds)
        if {k: END_TO_END[k] for k in got_e2e} != want_e2e:
            problems.append(f"{workload}: end-to-end metrics {sorted(got_e2e)} != {sorted(want_e2e)}")
        units = per_layer_units()
        if {k: units[k] for k in got_layer} != want_layer:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        # seed 5 applies a reflection: the answers must agree up to symmetry
        _, other = run_workload(workload, 5, 0, False, size="tiny")
        if sorted(rounds[0]["answers"]) != sorted(other[0]["answers"]):
            problems.append(f"{workload}: seeds 0 and 5 disagree:\n{rounds[0]['answers']}\n{other[0]['answers']}")
        print(f"self-check {workload}: {len(rounds[0]['ops'])} ops, answers compared")
    _, right = run_workload("cf_deep", 0, 0, False, size="tiny")
    _, wrong = run_workload("cf_deep", 0, 0, False, size="tiny", wrong_reference=True)
    if not sum(not o["ok"] for o in wrong[0]["ops"]) > sum(not o["ok"] for o in right[0]["ops"]):
        problems.append("a wrong golden-root reference did not raise ops_failed")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the harness at tiny sizes")
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and run_workload removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.exists(os.path.join(ROOT, "src", "euler_spectra", "__init__.py")):
        print(f"no euler_spectra package under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
