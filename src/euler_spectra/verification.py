"""Acceptance suite: nine numbered end-to-end checks at pinned tolerances.

Each check body returns (passed, detail) and the _check decorator makes it
a function returning its timed CheckResult; the CLI `verify` command prints
one line per check and exits nonzero if any fail, and the test suite
asserts them individually.

Check 1 pins the benchmark eigenvalue to within 1e-10 of GOLDEN_ROOT, the
golden-class root to 25 digits, derived at 40-digit precision from the
recurrence definition alone, without this package (tests/test_golden_root.py
recomputes it).  It also holds the root to within 1e-8 of REFERENCE_ROOT,
the published 14-digit value, which is kept verbatim: that constant is
6.8e-9 from the true root, so it cannot serve as a 1e-10 comparand, and
1e-8 is its own accuracy.  The check's detail string reports both
distances.  Check 2 validates the three-way method agreement at the
solver's converged root.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .contfrac import CFParams, find_eigenvalues, mode_amplitudes
from .errors import NumericalError, UsageError
from .euler_core import (
    ModeSet,
    VorticityField,
    _embed,
    euler_rhs,
    fixed_point,
    integrate_euler,
    jacobian_check,
)
from .lattice import WaveVector, canonical_label, classes_meeting_disk
from .matrixop import (
    build,
    detM_eigentest,
    essential_band,
    green_kernel,
    pattern,
    resolvent_apply,
    truncated_spectrum,
)
from .subsystem import (
    ComplexSeq,
    StabilityKind,
    SubsystemSpec,
    classify_stability,
    fit_growth_rate,
    integrate,
)

__all__ = ["CHECKS", "run_checks", "REFERENCE_ROOT", "GOLDEN_ROOT", "GOLDEN_ROOT_DIGITS"]

V = WaveVector

# published benchmark value, kept verbatim; see module docstring
REFERENCE_ROOT = 0.24822302478255 + 0.35172076526520j
# golden-class root (real, imag) to 25 digits from a 40-digit computation
# independent of this package; see module docstring
GOLDEN_ROOT_DIGITS = ("0.2482230180411067109438467", "0.3517207645854475115958122")
GOLDEN_ROOT = complex(float(GOLDEN_ROOT_DIGITS[0]), float(GOLDEN_ROOT_DIGITS[1]))


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(index: int, name: str, limit: float = float("inf")):
    """Turn a check body returning (passed, detail) into a check returning
    its timed CheckResult; the check fails unless the body also ends within
    limit seconds.  A body that raises UsageError or NumericalError fails
    the check with the class and message as its detail; any other
    exception propagates."""

    def wrap(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.monotonic()
            try:
                passed, detail = body()
            except (UsageError, NumericalError) as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - t0
            # bool(): a numpy comparison gives np.bool_, which has no JSON form
            return CheckResult(index, name, bool(passed) and elapsed < limit, detail, elapsed)

        return check

    return wrap


def _golden_params() -> CFParams:
    return CFParams.for_class(V(1, 0), V(1, 1), 1.0)


def _find_golden_root() -> complex:
    quads = find_eigenvalues(_golden_params(), search_box=(0.1, 0.6, 0.1, 0.6), grid=6, tol=1e-12)
    if len(quads) != 1:
        raise NumericalError(f"expected one quadruple, found {len(quads)}")
    return quads[0].lambda_tilde


def _polish_detm_root(params: CFParams, lam_hat: complex) -> complex:
    """The det-M root near lam_hat (in lambda/(i a)), by at most 50 Newton
    steps with a central-difference derivative from lam_hat + 5e-4(1+i),
    so that det-M finds the root on its own rather than being handed it.

    detM_eigentest counts det M from the class's minimal member, from which
    find_eigenvalues searches too, so the polish does not depend on the
    member params holds."""
    z = lam_hat + 5e-4 * (1 + 1j)
    for _ in range(50):
        h = 1e-7 * (1 + abs(z))
        d = (detM_eigentest(params, z + h) - detM_eigentest(params, z - h)) / (2 * h)
        step = detM_eigentest(params, z) / d
        z -= step
        if abs(step) < 1e-14:
            break
    return z


@_check(1, "golden eigenvalue vs reference digits", limit=5.0)
def check_1_golden_eigenvalue():
    params = _golden_params()
    quads = find_eigenvalues(params, search_box=(0.05, 1.0, 0.05, 1.0), grid=20, tol=1e-12)
    ok_count = len(quads) == 1
    dist = dist_ref = float("inf")
    if quads:
        dist = abs(quads[0].lambda_tilde - GOLDEN_ROOT)
        dist_ref = abs(quads[0].lambda_tilde - REFERENCE_ROOT)
    ok_value = dist <= 1e-10 and dist_ref <= 1e-8
    detail = (
        f"quadruples={len(quads)}, |root - 25-digit root|={dist:.3e} (tolerance 1e-10), "
        f"|root - published reference|={dist_ref:.3e} (tolerance 1e-8, the published "
        f"value is 6.8e-9 from the true root)"
    )
    return ok_count and ok_value, detail


@_check(2, "three-way oracle agreement at N=400", limit=60.0)
def check_2_oracle_agreement():
    params = _golden_params()
    root = _find_golden_root()
    a = params.a

    ev = truncated_spectrum(build("A", params, 400))
    quad = [root, -root, np.conj(root), -np.conj(root)]
    matrix_dists = [float(np.min(np.abs(ev - a * m))) for m in quad]
    ok_matrix = max(matrix_dists) < 1e-6

    lam_hat = -1j * root  # lambda/(i a) at the converged value
    detm = abs(detM_eigentest(params, lam_hat))
    ok_detm = detm < 1e-8

    # polish a det-M root from an offset seed and compare all three methods
    lam_cf = a * root
    lam_detm = 1j * a * _polish_detm_root(params, lam_hat)
    nearest_matrix = ev[int(np.argmin(np.abs(ev - lam_cf)))]
    three_way = max(
        abs(lam_cf - lam_detm), abs(lam_cf - nearest_matrix), abs(lam_detm - nearest_matrix)
    )
    ok_threeway = three_way < 1e-6

    detail = (
        f"max matrix dist={max(matrix_dists):.3e}, |detM|={detm:.3e}, "
        f"three-way spread={three_way:.3e}"
    )
    return ok_matrix and ok_detm and ok_threeway, detail


@_check(3, "essential band and finite-section densification")
def check_3_essential_band():
    params = _golden_params()
    band = essential_band(params)
    ok_endpoints = sorted(band.endpoints, key=lambda e: e.imag) == [-0.5j, 0.5j]

    gaps = {}
    ok_imag = True
    ok_range = True
    closed_err = 0.0
    for N in (400, 800):
        op = build("B", params, N)
        ev = truncated_spectrum(op)
        ok_imag &= bool(np.max(np.abs(ev.real)) < 1e-10)
        ok_range &= bool(np.max(np.abs(ev.imag)) <= 0.5 + 1e-3)
        im = np.sort(ev.imag)
        gaps[N] = float(np.max(np.diff(im)))
        # B = i b P and P is the path graph's adjacency in relabelled order
        exact = np.sort(2.0 * op.b * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
        closed_err = max(closed_err, float(np.max(np.abs(ev - 1j * exact))) / abs(op.b))
    ok_gap = gaps[800] <= gaps[400] / 1.5
    ok_closed = closed_err < 1e-12

    detail = (
        f"endpoints +-0.5i: {ok_endpoints}, spectra imaginary/in-range: {ok_imag and ok_range}, "
        f"gap {gaps[400]:.2e} -> {gaps[800]:.2e} (shrink x{gaps[400] / gaps[800]:.2f}), "
        f"max |ev - 2ib cos(k pi/(N+1))|/|b|={closed_err:.1e} (tolerance 1e-12)"
    )
    return ok_endpoints and ok_imag and ok_range and ok_gap and ok_closed, detail


@_check(4, "disk-avoidance stability bound")
def check_4_stability_theorems():
    label = canonical_label(V(3, 0), V(1, 1))
    verdict = classify_stability(label)
    ok_kind = verdict.kind is StabilityKind.STABLE_UDT
    ok_sigma = verdict.sigma is not None and abs(verdict.sigma - 5.0 / 3.0) <= 1e-12

    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-15, n_max=15)
    rng = np.random.default_rng(42)
    # 20 random states, one per row, integrated as one batch
    vals = np.array([rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width) for _ in range(20)])
    traj = integrate(spec, ComplexSeq(spec.n_min, vals), dt=1e-2, steps=1000, sample_every=20)
    worst = float(np.max(traj.enstrophy_ratio))
    # the enstrophy bound ||w(t)||^2 <= sigma ||w(0)||^2, relative slack 1e-6
    ok_bound = ok_sigma and worst <= verdict.sigma * (1.0 + 1e-6)

    # no growing mode: the N=200 section, not the search (which answers a
    # class with no member inside the disk without looking)
    section = build("A", CFParams.for_class(label.khat, label.p, 1.0), 200)
    growing = int(np.sum(truncated_spectrum(section).real > 1e-8 * abs(section.b)))

    detail = (
        f"sigma={verdict.sigma!r}, worst enstrophy ratio={worst:.6f} "
        f"(bound {5 / 3:.6f}), N=200 section eigenvalues with Re > 1e-8|b|: {growing}"
    )
    return ok_kind and ok_sigma and ok_bound and growing == 0, detail


@_check(5, "chain invariants conserved under integration")
def check_5_conservation():
    spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-40, n_max=40)
    rng = np.random.default_rng(7)
    state = ComplexSeq(spec.n_min, rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width))

    coarse = integrate(spec, state, dt=1e-3, steps=1000, sample_every=100)
    ok_drift = coarse.h_drift < 1e-8 and coarse.i_drift < 1e-8

    # RK4 order: over the same T = 1, halving dt must cut each drift by at
    # least 8; at dt = 0.1 and 0.05 the drifts stand far above rounding
    big = integrate(spec, state, dt=0.1, steps=10)
    half = integrate(spec, state, dt=0.05, steps=20)
    ratios = (big.h_drift / half.h_drift, big.i_drift / half.i_drift)
    detail = (
        f"H drift={coarse.h_drift:.2e}, I drift={coarse.i_drift:.2e}; drift ratio dt=0.1 / dt=0.05 over T=1: "
        f"H {ratios[0]:.1f}, I {ratios[1]:.1f} (order test needs >= 8)"
    )
    return ok_drift and min(ratios) >= 8.0, detail


def _spectrum_asymmetry(T: np.ndarray) -> float:
    """Worst distance from the negative or the conjugate of an eigenvalue of
    i T to the nearest eigenvalue of i T, T real.

    The eigenvalues come from LAPACK's real QR, which returns conjugate
    pairs exactly but knows nothing of the +- symmetry of a zero-diagonal
    tridiagonal, so the measure tests the section rather than a solver
    that is symmetric by construction (truncated_spectrum is)."""
    ev = 1j * np.linalg.eigvals(T)
    # distance from each image point to its nearest eigenvalue
    return max(float(np.max(np.min(np.abs(ev - image[:, None]), axis=1))) for image in (-ev, np.conj(ev)))


@_check(6, "spectrum symmetric under negation and conjugation")
def check_6_spectrum_symmetry():
    # the first non-parallel classes of each pump, up to its quota
    quota = {V(1, 1): 2, V(2, 1): 2, V(1, 0): 1}
    picked = [
        label
        for p, want in quota.items()
        for label in itertools.islice((c for c in classes_meeting_disk(p, p.norm2) if not c.parallel), want)
    ]
    worst = 0.0
    for label in picked:
        chain = build("A", CFParams.for_class(label.khat, label.p, 1.0), 200).chain
        # the section is i T, T in chain order: T[n, n +- 1] = chain[n +- 1]
        worst = max(worst, _spectrum_asymmetry(np.diag(chain[1:], 1) + np.diag(chain[:-1], -1)))
    detail = f"classes={[(l.khat.k1, l.khat.k2, l.p.k1, l.p.k2) for l in picked]}, worst asymmetry={worst:.2e}"
    return len(picked) == 5 and worst < 1e-8, detail


@_check(7, "resolvent residual and uniform row-sum bound")
def check_7_resolvent():
    rng = np.random.default_rng(11)
    worst_residual = 0.0
    bounds = {}
    for lam in (3.0, 3.0 + 1.0j, 0.5 - 4.0j):
        for _ in range(10):
            support = int(rng.integers(3, 16))
            y = rng.normal(size=support) + 1j * rng.normal(size=support)
            z = resolvent_apply(lam, y)
            yf = np.concatenate([y, np.zeros(len(z) - len(y), dtype=complex)])
            resid = np.max(np.abs(pattern(len(z)) @ z - lam * z - yf))
            worst_residual = max(worst_residual, float(resid))
        G = green_kernel(lam, 60, 80)
        bounds[str(lam)] = float(np.max(np.sum(np.abs(G), axis=1)))
    ok_bounds = all(np.isfinite(v) for v in bounds.values())
    detail = f"worst residual={worst_residual:.2e}, row-sum bounds={ {k: round(v, 4) for k, v in bounds.items()} }"
    return worst_residual < 1e-9 and ok_bounds, detail


@_check(8, "linearization consistency and perturbation growth")
def check_8_linearization():
    deviation = jacobian_check(V(1, 1), 1.0, ModeSet.disk(5.0))
    ok_jac = deviation < 1e-6

    # growth of an eigenmode-shaped perturbation; cutoff 8 so the retained
    # chain members resolve the eigenmode (see ledger: 5% is unattainable
    # with the 8-member truncation at cutoff 5)
    params = _golden_params()
    root = _find_golden_root()
    growing = -root  # a < 0, so -root maps to the member with Re(a*lt) > 0
    target_rate = 2.0 * abs((params.a * root).real)

    modeset = ModeSet.disk(8.0)
    members = [n for n in range(-20, 21) if params.khat.plus(n, params.p) in modeset]
    n_min, n_max = min(members), max(members)
    amps = mode_amplitudes(params, growing, n_min, n_max)

    eps = 1e-6
    base = fixed_point(params.p, 1.0, modeset)
    pert = {params.khat.plus(n, params.p): eps * amp for n, amp in zip(range(n_min, n_max + 1), amps)}
    fld = VorticityField(modeset, base.coeffs + VorticityField.from_dict(modeset, pert).coeffs)

    traj = integrate_euler(fld, dt=0.02, steps=3000, sample_every=30)
    # rows of one embedding are C-contiguous, so each row sums as its
    # sample's full_vector() alone does
    enstrophy = np.sum(np.abs(_embed(modeset, traj.coeffs) - base.full_vector()) ** 2, axis=-1)
    rate = fit_growth_rate(traj.times, enstrophy)
    ok_rate = abs(rate - target_rate) / target_rate < 0.05

    detail = (
        f"jacobian max deviation={deviation:.2e}; nonlinear growth rate={rate:.6f} "
        f"vs 2|Re(a*root)|={target_rate:.6f} ({abs(rate - target_rate) / target_rate:.2%})"
    )
    return ok_jac and ok_rate, detail


@_check(9, "nonlinear invariants and equilibrium families")
def check_9_nonlinear_conservation():
    modeset = ModeSet.disk(5.0)
    rng = np.random.default_rng(13)
    n = len(modeset.representatives)
    fld = VorticityField(modeset, 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    traj = integrate_euler(fld, dt=1e-3, steps=1000, sample_every=100)
    ok_drift = traj.e_drift < 1e-8 and traj.j_drift < 1e-8

    ray = VorticityField.from_dict(modeset, {V(1, 2): 0.3 + 0.4j, V(2, 4): -0.2j})
    circle = VorticityField.from_dict(
        modeset, {V(1, 2): 1.0, V(2, 1): 0.5j, V(-1, 2): -0.25, V(2, -1): 0.1 - 0.9j}
    )
    rhs_norms = [float(np.max(np.abs(euler_rhs(f).coeffs))) for f in (ray, circle)]
    ok_families = max(rhs_norms) < 1e-14

    detail = (
        f"E drift={traj.e_drift:.2e}, J drift={traj.j_drift:.2e}, "
        f"fixed-family rhs norms=[{', '.join(f'{x:.2e}' for x in rhs_norms)}]"
    )
    return ok_drift and ok_families, detail


CHECKS = [
    check_1_golden_eigenvalue,
    check_2_oracle_agreement,
    check_3_essential_band,
    check_4_stability_theorems,
    check_5_conservation,
    check_6_spectrum_symmetry,
    check_7_resolvent,
    check_8_linearization,
    check_9_nonlinear_conservation,
]


def run_checks() -> list[CheckResult]:
    """Run all acceptance checks in turn; results come back ordered by
    check index."""
    return sorted((fn() for fn in CHECKS), key=lambda r: r.index)
