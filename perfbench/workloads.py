"""The four workloads: inputs made from a seed, a fixed op list, and a
correctness check on every op.

The seed picks one of the eight lattice symmetries (the dihedral group D4)
and applies it to every pump and class.  The rho coefficients depend only
on norms, so the spectra in the scale-free variable lambda_tilde are the
same for every image, and every reference below is stated once, for the
identity.  The program still receives different inputs.  The seed also
draws every random state and right-hand side.

An op is one call into the package.  It fails when it raises or when its
answer fails its check; a failure that is a documented defect of the
package is marked ``known`` and still counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import time

import numpy as np

from euler_spectra import cli, contfrac, euler_core, matrixop, subsystem, verification
from euler_spectra.lattice import WaveVector

# Rotations, then reflections, as integer matrices acting on (k1, k2).
D4 = (
    ((1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((-1, 0), (0, -1)),
    ((0, 1), (-1, 0)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((0, -1), (-1, 0)),
)

# The golden class p=(1,1), khat=(1,0): continued fraction, dense oracle at
# N=400 and 800 and det-M agree on this root to 2e-15 (README).
GOLDEN_ROOT = 0.248223018041107 + 0.351720764585448j
ROOT_TOL = 1e-11  # well below the 7e-9 error of check 1's reference constant
CF_RESIDUAL = 1e-12  # the solvers' own acceptance threshold
MATRIX_MATCH = 1e-6  # CF member to nearest N=400 eigenvalue (check 2)
DETM_LIMIT = 1e-8  # check 2
DRIFT_LIMIT = 1e-8  # H/I drift (check 5) and E/J drift (check 9)
RESOLVENT_LIMIT = 1e-9  # check 7
RHS_BALANCE = 1e-12  # dE/dt and dJ/dt of one right-hand side, relative

# `classes --scan-radius 3` for the identity image, as a multiset of
# (|khat|^2, parallel, meets_disk, verdict kind, sigma).
EXPECTED_CLASSES = {
    (1, 1): sorted(
        [(1, False, True, "Undetermined", None)] * 2
        + [(2, False, True, "StableHalfClassBoth", 2.0)] * 2
        + [(2, True, True, "ParallelTrivial", None)]
        + [(5, False, False, "StableUDT", 5 / 3)] * 2
        + [(8, False, False, "StableUDT", 4 / 3)] * 2,
        key=repr,
    ),
    (2, 1): sorted(
        [(1, False, True, "Undetermined", None)] * 4
        + [(2, False, True, "Undetermined", None)] * 2
        + [(4, False, True, "Undetermined", None)] * 2
        + [(5, False, True, "StableHalfClassBoth", 2.0)] * 2
        + [(5, True, True, "ParallelTrivial", None)]
        + [(8, False, False, "StableUDT", 8 / 3)] * 2,
        key=repr,
    ),
}

# Point-spectrum quadruples per class of the identity image, keyed by
# (pump, canonical khat).  Full-chain classes map to a count; classes with a
# member on |k| = |p| map to the counts of the half-chains (+1, -1), each
# re-based at that member.  Classes missing the disk have none.
EXPECTED_QUADS = {
    ((1, 1), (0, 1)): 1,
    ((1, 1), (1, 0)): 1,
    ((1, 1), (-1, 1)): (0, 0),
    ((1, 1), (1, -1)): (0, 0),
    ((1, 1), (-1, 2)): 0,
    ((1, 1), (2, -1)): 0,
    ((1, 1), (-2, 2)): 0,
    ((1, 1), (2, -2)): 0,
    ((2, 1), (-1, 0)): 1,
    ((2, 1), (0, -1)): 1,
    ((2, 1), (0, 1)): 1,
    ((2, 1), (1, 0)): 1,
    ((2, 1), (-1, 1)): (0, 1),
    ((2, 1), (1, -1)): (1, 0),
    ((2, 1), (0, -2)): (0, 1),
    ((2, 1), (0, 2)): (1, 0),
    ((2, 1), (-1, 2)): (0, 0),
    ((2, 1), (1, -2)): (0, 0),
    ((2, 1), (-2, 2)): 0,
    ((2, 1), (2, -2)): 0,
}
GOLDEN_CLASSES = {((1, 1), (1, 0)), ((1, 1), (0, 1))}

# Sizes: "full" is what the benchmark measures, "tiny" is what the harness
# self-check runs.
SIZES = {
    "full": {
        "cf_box": None,  # the CLI default box 1e-3..4
        "cf_grid": 20,
        "survey_pumps": ((1, 1), (2, 1)),
        "survey_box": "0.05,2,0.05,2",
        "survey_grid": 12,
        "half_grid": 3,
        "n_matrix": 400,
        "resolvent_probes": 2,
        "sim_window": 40,
        "chains": 20,
        "chain_steps": 1000,
        "cutoffs": (5, 8, 12),
        "euler_steps": 200,
        "cli_cutoff": 4,
        "checks": None,  # all nine, through run_checks()
    },
    "tiny": {
        "cf_box": "0.05,1,0.05,1",
        "cf_grid": 6,
        "survey_pumps": ((1, 1),),
        "survey_box": "0.05,1,0.05,1",
        "survey_grid": 6,
        "half_grid": 3,
        "n_matrix": 60,
        "resolvent_probes": 1,
        "sim_window": 10,
        "chains": 2,
        "chain_steps": 100,
        "cutoffs": (3, 4),
        "euler_steps": 20,
        "cli_cutoff": 2,
        "checks": (0, 4, 5, 6),  # indices into verification.CHECKS
    },
}


def vec(k) -> str:
    return f"{k[0]},{k[1]}"


def apply(g, k):
    return (g[0][0] * k[0] + g[0][1] * k[1], g[1][0] * k[0] + g[1][1] * k[1])


def inverse(g):
    # every D4 matrix is orthogonal: the inverse is the transpose
    return ((g[0][0], g[1][0]), (g[0][1], g[1][1]))


def canonical(k, p):
    """Minimal-norm member of the class of k, ties to the greatest tuple."""
    members = [(k[0] + n * p[0], k[1] + n * p[1]) for n in range(-8, 9)]
    members = [m for m in members if m != (0, 0)]
    best = min(m[0] ** 2 + m[1] ** 2 for m in members)
    return max(m for m in members if m[0] ** 2 + m[1] ** 2 == best)


def det(p, k) -> int:
    return p[0] * k[1] - p[1] * k[0]


def orbit(z: complex) -> list[complex]:
    return [z, -z, z.conjugate(), -z.conjugate()]


def first_quadrant(z: complex) -> complex:
    return next(u for u in orbit(z) if u.real >= 0 and u.imag >= 0)


# Host-speed calibration.  On a shared host the CPU runs the same code up to
# 1.5x slower for seconds to minutes at a time, and the ops slow by about
# the same factor.  While a round runs, a SIGALRM handler times a fixed unit
# every CAL_INTERVAL_S of wall time.  Python runs the handler in the main
# thread between bytecodes, so units also land inside ops; their time is
# taken out of every time the round reports, and run.py scales the rest by
# the unit's reference time over its measured mean time.
CAL_ITERATIONS = 10_000
CAL_MATRIX = np.random.default_rng(0).normal(size=(40, 40))
CAL_INTERVAL_S = 0.05
EDGE_CAL_UNITS = 40  # after set-up, in a process that runs no op list
LOCAL_CAL_UNITS = 10  # an op or round with this many units inside is scaled by them


def calibration_unit() -> None:
    """About 1 ms of interpreter loop and 0.8 ms of small LAPACK calls, as the
    workloads split their time between Python loops and dense LAPACK."""
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    np.linalg.eigvals(CAL_MATRIX)
    np.linalg.eigvals(CAL_MATRIX)


class Known(str):
    """A failure that is a documented defect of the package."""


class Recorder:
    """Runs ops, times them, checks them and keeps the records."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.ops: list[dict] = []
        self.answers: list[str] = []  # symmetry-invariant answers
        self.units: list[tuple[float, float, float]] = []  # (start, wall, cpu) of every calibration unit

    def calibrate(self, units: int = 1) -> None:
        for _ in range(units):
            cpu0, start = time.process_time(), time.perf_counter()
            calibration_unit()
            self.units.append((start, time.perf_counter() - start, time.process_time() - cpu0))

    @contextlib.contextmanager
    def sampling(self):
        """Run one calibration unit every CAL_INTERVAL_S meanwhile."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def units_between(self, start: float, end: float) -> list[tuple[float, float, float]]:
        return [u for u in self.units if start <= u[0] < end]

    def op(self, kind: str, call, check=None):
        """Time ``call()``; then ``check(result)`` returns None when the
        answer is right, else the reason (a ``Known`` for a known defect)."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op
            end = time.perf_counter()
            self.record(kind, end - start, f"raised {type(exc).__name__}: {exc}", (start, end))
            return None
        end = time.perf_counter()
        try:
            problem = check(result) if check is not None else None
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.record(kind, end - start, problem, (start, end))
        return result

    def record(self, kind, seconds, problem, interval=None):
        """``seconds`` of an op that ran within ``interval`` (start, end):
        the calibration units run in there are taken out, and when there
        are LOCAL_CAL_UNITS of them their mean is the op's own unit time."""
        inside = self.units_between(*interval) if interval else []
        self.ops.append(
            {
                "kind": kind,
                "seconds": seconds - sum(u[1] for u in inside),
                "cal_unit_s": sum(u[1] for u in inside) / len(inside) if len(inside) >= LOCAL_CAL_UNITS else None,
                "ok": problem is None,
                "known": isinstance(problem, Known),
                "problem": problem,
            }
        )

    def cli(self, kind: str, argv: list[str], check):
        """Run ``cli.main(argv)`` in-process with ``--output`` on a temp file;
        the check receives the parsed JSON."""
        path = os.path.join(self.tmp, "out.json")

        def call():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--output", path])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")

        def check_output(_):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            return check(doc)

        self.op(kind, call, check_output)


def _quad_members(doc_quads) -> list[complex]:
    return [complex(m["re"], m["im"]) for q in doc_quads for m in q["members"]]


def _check_quads(reps, members, residuals, expected_count, golden, reference):
    if any(r >= CF_RESIDUAL for r in residuals):
        return f"residual {max(residuals):.2e} >= {CF_RESIDUAL:g}"
    for z in reps:
        if any(min(abs(u - m) for m in members) > 1e-9 for u in orbit(z)):
            return f"quadruple of {z} is not closed under negation and conjugation"
    if len(reps) != expected_count:
        return f"{len(reps)} quadruples, expected {expected_count}"
    if golden and not any(abs(first_quadrant(z) - reference) < ROOT_TOL for z in reps):
        return f"golden root missing: got {reps}"
    return None


# ---------------------------------------------------------------------------
# cf_deep


def cf_deep(rec: Recorder, inputs: dict) -> None:
    size, g = inputs["size"], inputs["g"]
    argv = ["eigs-cf", f"--p={vec(apply(g, (1, 1)))}", f"--khat={vec(apply(g, (1, 0)))}"]
    argv += ["--grid", str(size["cf_grid"])]
    if size["cf_box"]:
        argv += ["--box", size["cf_box"]]

    def check(doc):
        quads = doc["quadruples"]
        reps = [complex(q["re"], q["im"]) for q in quads]
        rec.answers.append(f"cf_deep roots {[f'{first_quadrant(z):.9f}' for z in reps]}")
        return _check_quads(
            reps, _quad_members(quads), [q["residual"] for q in quads], 1, True, inputs["reference"]
        )

    rec.cli("eigs-cf", argv, check)


# ---------------------------------------------------------------------------
# class_survey


def _pattern(n: int) -> np.ndarray:
    """0/1 pattern of B from its definition: chain index n sits at matrix
    index 2n (n >= 1) or 2|n| + 1 (n <= 0) and couples to n - 1 and n + 1."""
    P = np.zeros((n, n))
    for m in range(1, n + 1):
        c = m // 2 if m % 2 == 0 else -(m - 1) // 2
        for nb in (c - 1, c + 1):
            col = 2 * nb if nb >= 1 else 2 * (-nb) + 1
            if col <= n:
                P[m - 1, col - 1] = 1.0
    return P


def _survey_class(rec, inputs, p, khat):
    size, g = inputs["size"], inputs["g"]
    ginv = inverse(g)
    key = (apply(ginv, p), canonical(apply(ginv, khat), apply(ginv, p)))
    expected = EXPECTED_QUADS.get(key)
    if expected is None:
        rec.record("class", 0.0, f"class {key} is not in the identity table")
        return
    n2 = p[0] ** 2 + p[1] ** 2
    circle = [
        (khat[0] + n * p[0], khat[1] + n * p[1])
        for n in range(-4, 5)
        if (khat[0] + n * p[0]) ** 2 + (khat[1] + n * p[1]) ** 2 == n2
    ]
    a = 0.5 * det(p, khat)
    pv = WaveVector(*p)
    members: list[complex] = []  # lambda_tilde of every point-spectrum member

    if not circle:
        argv = ["eigs-cf", f"--p={vec(p)}", f"--khat={vec(khat)}", "--box", size["survey_box"]]
        argv += ["--grid", str(size["survey_grid"])]

        def check_cf(doc):
            quads = doc["quadruples"]
            reps = [complex(q["re"], q["im"]) for q in quads]
            members.extend(_quad_members(quads))
            rec.answers.append(f"survey {key} roots {sorted(f'{first_quadrant(z):.9f}' for z in reps)}")
            return _check_quads(
                reps, members, [q["residual"] for q in quads], expected, key in GOLDEN_CLASSES, inputs["reference"]
            )

        rec.cli("eigs-cf", argv, check_cf)
    else:
        params = contfrac.CFParams.for_class(WaveVector(*circle[0]), pv, 1.0)
        for side, want in zip((+1, -1), expected):

            def check_half(quads, side=side, want=want):
                reps = [q.lambda_tilde for q in quads]
                found = [m for q in quads for m in q.members]
                members.extend(found)
                rec.answers.append(f"survey {key} half {side} roots {sorted(f'{first_quadrant(z):.9f}' for z in reps)}")
                return _check_quads(reps, found, [q.residual for q in quads], want, False, None)

            box = tuple(float(x) for x in size["survey_box"].split(","))
            rec.op(
                "find_eigenvalues_half",
                lambda side=side: contfrac.find_eigenvalues_half(params, side, search_box=box, grid=size["half_grid"]),
                check_half,
            )

    def check_matrix(doc):
        ev = np.array([complex(e["re"], e["im"]) for e in doc["eigenvalues"]])
        isolated = sum(e["kind"] == "isolated" for e in doc["eigenvalues"])
        if len(ev) != size["n_matrix"]:
            return f"{len(ev)} eigenvalues, expected {size['n_matrix']}"
        far = [m for m in members if np.min(np.abs(ev - doc["a"] * m)) > MATRIX_MATCH]
        if far:
            return f"CF members {far} not in the N={size['n_matrix']} spectrum"
        rec.answers.append(f"survey {key} matrix members {len(members)}")
        if isolated > len(members):
            return Known(f"{isolated} eigenvalues marked isolated, {len(members)} expected (ROADMAP item 3)")
        if isolated < len(members):
            return f"{isolated} eigenvalues marked isolated, {len(members)} expected"
        return None

    argv = ["eigs-matrix", f"--p={vec(p)}", f"--khat={vec(khat)}", "--n-matrix", str(size["n_matrix"])]
    rec.cli("eigs-matrix", argv, check_matrix)

    def check_band(doc):
        b = -a / n2
        want = sorted((2j * b, -2j * b), key=lambda z: z.imag)
        got = [complex(e["re"], e["im"]) for e in doc["endpoints"]]
        if max(abs(x - y) for x, y in zip(got, want)) > 1e-12 or abs(doc["width"] - 4 * abs(b)) > 1e-12:
            return f"band {got} width {doc['width']}, expected {want} width {4 * abs(b)}"
        return None

    rec.cli("band", ["band", f"--p={vec(p)}", f"--khat={vec(khat)}"], check_band)

    if not circle:  # det-M needs rho != 0 on every member
        params = contfrac.CFParams.for_class(WaveVector(*khat), pv, 1.0)
        for m in members:

            def check_detm(value, m=m):
                return None if abs(value) < DETM_LIMIT else f"|det M|={abs(value):.2e} at {m}"

            rec.op("detM_eigentest", lambda m=m: matrixop.detM_eigentest(params, -1j * m), check_detm)

    for lam, y in next(inputs["probes"], []):

        def check_resolvent(z, lam=lam, y=y):
            P = _pattern(len(z) + 2)
            zf = np.concatenate([z, np.zeros(2)])
            yf = np.concatenate([y, np.zeros(len(zf) - len(y))])
            resid = float(np.max(np.abs((P @ zf - lam * zf - yf)[: len(z)])))
            return None if resid < RESOLVENT_LIMIT else f"residual {resid:.2e} at lambda_b={lam}"

        rec.op("resolvent_apply", lambda lam=lam, y=y: matrixop.resolvent_apply(lam, y), check_resolvent)


def class_survey(rec: Recorder, inputs: dict) -> None:
    g = inputs["g"]
    for p0 in inputs["size"]["survey_pumps"]:
        p = apply(g, p0)
        rows = []

        def check_classes(doc, p0=p0, p=p):
            got = []
            for r in doc["classes"]:
                v = r["verdict"]
                sigma = None if v["sigma"] is None else round(v["sigma"], 12)
                got.append((r["khat"][0] ** 2 + r["khat"][1] ** 2, r["parallel"], r["meets_disk"], v["kind"], sigma))
                rows.append(r)
            want = [e[:4] + (None if e[4] is None else round(e[4], 12),) for e in EXPECTED_CLASSES[p0]]
            rec.answers.append(f"classes {p0} {sorted(got, key=repr)}")
            return None if sorted(got, key=repr) == want else f"classes {sorted(got, key=repr)} != {want}"

        rec.cli("classes", ["classes", f"--p={vec(p)}", "--scan-radius", "3"], check_classes)
        for r in rows:
            if not r["parallel"]:
                _survey_class(rec, inputs, p, tuple(r["khat"]))


# ---------------------------------------------------------------------------
# dynamics


def _drift_check(*drifts):
    worst = max(drifts)
    return None if worst < DRIFT_LIMIT else f"drift {worst:.2e} >= {DRIFT_LIMIT:g}"


def dynamics(rec: Recorder, inputs: dict) -> None:
    size, g = inputs["size"], inputs["g"]
    p, golden, udt = apply(g, (1, 1)), apply(g, (1, 0)), apply(g, (3, 0))

    argv = ["simulate", f"--p={vec(p)}", f"--khat={vec(golden)}", "--n-window", str(size["sim_window"])]
    rec.cli("simulate", argv, lambda doc: _drift_check(doc["summary"]["H_drift"], doc["summary"]["I_drift"]))

    spec = subsystem.SubsystemSpec(khat=WaveVector(*udt), p=WaveVector(*p), gamma=1.0, n_min=-15, n_max=15)
    for state in inputs["chain_states"]:

        def check_chain(traj):
            if traj.enstrophy_ratio > 5.0 / 3.0 * (1.0 + 1e-6):  # sigma of class (3,0), check 4
                return f"enstrophy ratio {traj.enstrophy_ratio} above sigma 5/3"
            return _drift_check(traj.h_drift, traj.i_drift)

        # check 5's step: its drift limit holds at dt=1e-3, while at 1e-2
        # RK4 alone drifts up to 3e-8 on some random states
        rec.op(
            "integrate",
            lambda state=state: subsystem.integrate(
                spec, subsystem.ComplexSeq(spec.n_min, state), dt=1e-3, steps=size["chain_steps"], sample_every=20
            ),
            check_chain,
        )

    for cutoff, coeffs in zip(size["cutoffs"], inputs["fields"]):
        field = rec.op(
            f"make_field K={cutoff}",
            lambda cutoff=cutoff, coeffs=coeffs: euler_core.VorticityField(euler_core.ModeSet.disk(cutoff), coeffs),
        )
        if field is None:
            continue
        norms = np.array([k.norm2 for k in field.modeset.modes], dtype=float)

        def check_rhs(rhs, field=field, norms=norms):
            # the truncation conserves E and J exactly: dE/dt = dJ/dt = 0
            w, dw = field.full_vector(), rhs.full_vector()
            dj = float(np.sum((np.conj(w) * dw).real))
            de = float(np.sum((np.conj(w) * dw).real / norms))
            scale = float(np.sum(np.abs(w) * np.abs(dw)))
            if max(abs(dj), abs(de)) > RHS_BALANCE * scale:
                return f"dE/dt={de:.2e}, dJ/dt={dj:.2e} against scale {scale:.2e}"
            return None

        rec.op(f"euler_rhs K={cutoff}", lambda field=field: euler_core.euler_rhs(field), check_rhs)
        steps = size["euler_steps"]
        rec.op(
            f"integrate_euler K={cutoff}",
            lambda field=field: euler_core.integrate_euler(field, dt=1e-3, steps=steps, sample_every=steps // 10),
            lambda traj: _drift_check(traj.e_drift, traj.j_drift),
        )

    argv = ["euler-sim", f"--p={vec(p)}", f"--khat={vec(golden)}", "--eps", "0.05"]
    argv += ["--k-cutoff", str(size["cli_cutoff"]), "--steps", str(size["euler_steps"])]
    rec.cli("euler-sim", argv, lambda doc: _drift_check(doc["E_drift"], doc["J_drift"]))
    rec.answers.append("dynamics " + " ".join(str(o["ok"]) for o in rec.ops))


# ---------------------------------------------------------------------------
# verify


def verify(rec: Recorder, inputs: dict) -> None:
    """Each acceptance check is one op; its time is CheckResult.seconds.
    ``run_checks()`` looks ``CHECKS`` up when called, so a list of the same
    checks, each noting when it ran, stands in for it meanwhile."""
    picked = inputs["size"]["checks"]
    checks = verification.CHECKS
    intervals = {}

    def timed(fn):
        def run():
            start = time.perf_counter()
            result = fn()
            intervals[result.index] = (start, time.perf_counter())
            return result

        return run

    verification.CHECKS = [timed(fn) for fn in checks]
    start = time.perf_counter()
    try:
        if picked is None:
            results = verification.run_checks()
        else:
            results = [verification.CHECKS[i]() for i in picked]
    except Exception as exc:
        rec.record("run_checks", time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
        return
    finally:
        verification.CHECKS = checks
    for r in results:
        problem = None
        if not r.passed:
            problem = f"check {r.index} failed: {r.detail}"
            if r.index == 1:
                problem = Known(problem + " (fails by construction, README)")
        rec.record(f"check{r.index}", r.seconds, problem, intervals.get(r.index))
        rec.answers.append(f"check {r.index} passed={r.passed}")


WORKLOADS = {"cf_deep": cf_deep, "class_survey": class_survey, "dynamics": dynamics, "verify": verify}


def make_inputs(workload: str, seed: int, size_name: str, wrong_reference: bool = False) -> dict:
    """Everything a round needs, drawn from the seed before any timed op."""
    size = SIZES[size_name]
    rng = np.random.default_rng(abs(seed))
    inputs = {
        "size": size,
        "g": D4[seed % 8],
        "reference": GOLDEN_ROOT + (1e-6 if wrong_reference else 0.0),
    }
    if workload == "class_survey":
        probes = []
        for _ in range(sum(1 for key in EXPECTED_QUADS if key[0] in size["survey_pumps"])):
            batch = []
            for _ in range(size["resolvent_probes"]):
                lam = complex(rng.uniform(-3.0, 3.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0))
                support = int(rng.integers(3, 16))
                batch.append((lam, rng.normal(size=support) + 1j * rng.normal(size=support)))
            probes.append(batch)
        inputs["probes"] = iter(probes)
    if workload == "dynamics":
        inputs["chain_states"] = [rng.normal(size=31) + 1j * rng.normal(size=31) for _ in range(size["chains"])]
        fields = []
        for cutoff in size["cutoffs"]:
            n = sum(1 for k1 in range(-cutoff, cutoff + 1) for k2 in range(-cutoff, cutoff + 1)
                    if 0 < k1 * k1 + k2 * k2 <= cutoff * cutoff) // 2
            fields.append(0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        inputs["fields"] = fields
    return inputs
