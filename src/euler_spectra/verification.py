"""Acceptance suite: nine numbered end-to-end checks at pinned tolerances.

Each check is a pure function returning a CheckResult; the CLI `verify`
command prints one line per check and exits nonzero if any fail, and the
test suite asserts them individually.

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

import time
from dataclasses import dataclass

import numpy as np

from .contfrac import CFParams, find_eigenvalues, mode_amplitudes
from .euler_core import (
    ModeSet,
    VorticityField,
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
    udt_bound_check,
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


def _golden_params() -> CFParams:
    return CFParams.for_class(V(1, 0), V(1, 1), 1.0)


def _find_golden_root(grid: int = 20, box=(0.05, 1.0, 0.05, 1.0)) -> complex:
    quads = find_eigenvalues(_golden_params(), search_box=box, grid=grid, tol=1e-12)
    if len(quads) != 1:
        raise AssertionError(f"expected one quadruple, found {len(quads)}")
    return quads[0].lambda_tilde


def check_1_golden_eigenvalue() -> CheckResult:
    t0 = time.monotonic()
    params = _golden_params()
    quads = find_eigenvalues(params, search_box=(0.05, 1.0, 0.05, 1.0), grid=20, tol=1e-12)
    elapsed = time.monotonic() - t0
    ok_count = len(quads) == 1
    dist = dist_ref = float("inf")
    if quads:
        dist = abs(quads[0].lambda_tilde - GOLDEN_ROOT)
        dist_ref = abs(quads[0].lambda_tilde - REFERENCE_ROOT)
    ok_value = dist <= 1e-10 and dist_ref <= 1e-8
    ok_time = elapsed < 5.0
    passed = ok_count and ok_value and ok_time
    detail = (
        f"quadruples={len(quads)}, |root - 25-digit root|={dist:.3e} (tolerance 1e-10), "
        f"|root - published reference|={dist_ref:.3e} (tolerance 1e-8, the published "
        f"value is 6.8e-9 from the true root), runtime={elapsed:.2f}s"
    )
    return CheckResult(1, "golden eigenvalue vs reference digits", passed, detail, elapsed)


def check_2_oracle_agreement() -> CheckResult:
    t0 = time.monotonic()
    params = _golden_params()
    root = _find_golden_root(grid=6, box=(0.1, 0.6, 0.1, 0.6))
    a = params.a

    ev = truncated_spectrum(build("A", params, 400))
    quad = [root, -root, np.conj(root), -np.conj(root)]
    matrix_dists = [float(np.min(np.abs(ev - a * m))) for m in quad]
    ok_matrix = max(matrix_dists) < 1e-6

    lam_hat = -1j * root  # lambda/(i a) at the converged value
    detm = abs(detM_eigentest(params, lam_hat))
    ok_detm = detm < 1e-8

    # polish a det-M root from an offset seed and compare all three methods
    z = lam_hat + 5e-4 * (1 + 1j)
    for _ in range(50):
        h = 1e-7 * (1 + abs(z))
        d = (detM_eigentest(params, z + h) - detM_eigentest(params, z - h)) / (2 * h)
        step = detM_eigentest(params, z) / d
        z -= step
        if abs(step) < 1e-14:
            break
    lam_cf = a * root
    lam_detm = 1j * a * z
    nearest_matrix = ev[int(np.argmin(np.abs(ev - lam_cf)))]
    three_way = max(
        abs(lam_cf - lam_detm), abs(lam_cf - nearest_matrix), abs(lam_detm - nearest_matrix)
    )
    ok_threeway = three_way < 1e-6

    elapsed = time.monotonic() - t0
    ok_time = elapsed < 60.0
    passed = ok_matrix and ok_detm and ok_threeway and ok_time
    detail = (
        f"max matrix dist={max(matrix_dists):.3e}, |detM|={detm:.3e}, "
        f"three-way spread={three_way:.3e}, runtime={elapsed:.1f}s"
    )
    return CheckResult(2, "three-way oracle agreement at N=400", passed, detail, elapsed)


def check_3_essential_band() -> CheckResult:
    t0 = time.monotonic()
    params = _golden_params()
    band = essential_band(params)
    ok_endpoints = sorted(e.imag for e in band.endpoints) == [-0.5, 0.5] and all(
        e.real == 0.0 for e in band.endpoints
    )

    gaps = {}
    ok_imag = True
    ok_range = True
    for N in (400, 800):
        ev = truncated_spectrum(build("B", params, N))
        ok_imag &= bool(np.max(np.abs(ev.real)) < 1e-10)
        ok_range &= bool(np.max(np.abs(ev.imag)) <= 0.5 + 1e-3)
        im = np.sort(ev.imag)
        gaps[N] = float(np.max(np.diff(im)))
    ok_gap = gaps[800] <= gaps[400] / 1.5

    elapsed = time.monotonic() - t0
    passed = ok_endpoints and ok_imag and ok_range and ok_gap
    detail = (
        f"endpoints +-0.5i: {ok_endpoints}, spectra imaginary/in-range: {ok_imag and ok_range}, "
        f"gap {gaps[400]:.2e} -> {gaps[800]:.2e} (shrink x{gaps[400] / gaps[800]:.2f})"
    )
    return CheckResult(3, "essential band and finite-section densification", passed, detail, elapsed)


def check_4_stability_theorems() -> CheckResult:
    t0 = time.monotonic()
    label = canonical_label(V(3, 0), V(1, 1))
    verdict = classify_stability(label)
    ok_kind = verdict.kind is StabilityKind.STABLE_UDT
    ok_sigma = verdict.sigma is not None and abs(verdict.sigma - 5.0 / 3.0) <= 1e-12

    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-15, n_max=15)
    worst = 0.0
    ok_bound = True
    rng = np.random.default_rng(42)
    for _ in range(20):
        vals = rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width)
        state = ComplexSeq(spec.n_min, vals)
        traj = integrate(spec, state, dt=1e-2, steps=1000, sample_every=20)
        report = udt_bound_check(spec, traj)
        ok_bound &= report.ok
        worst = max(worst, report.max_ratio)

    params = CFParams.for_class(label.khat, label.p, 1.0)
    quads = find_eigenvalues(params, search_box=(0.05, 3.0, 0.05, 3.0), grid=10, tol=1e-12)
    ok_empty = quads == []

    elapsed = time.monotonic() - t0
    passed = ok_kind and ok_sigma and ok_bound and ok_empty
    detail = (
        f"sigma={verdict.sigma!r}, worst enstrophy ratio={worst:.6f} "
        f"(bound {5 / 3:.6f}), eigenvalue list empty: {ok_empty}"
    )
    return CheckResult(4, "disk-avoidance stability bound", passed, detail, elapsed)


def check_5_conservation() -> CheckResult:
    t0 = time.monotonic()
    spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-40, n_max=40)
    rng = np.random.default_rng(7)
    state = ComplexSeq(spec.n_min, rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width))

    coarse = integrate(spec, state, dt=1e-3, steps=1000, sample_every=100)
    ok_drift = coarse.h_drift < 1e-8 and coarse.i_drift < 1e-8

    fine = integrate(spec, state, dt=5e-4, steps=2000, sample_every=200)
    floor = 1e-12
    ratios_ok = True
    for c, f in ((coarse.h_drift, fine.h_drift), (coarse.i_drift, fine.i_drift)):
        if f > floor:  # rounding-floor exemption
            ratios_ok &= c / f >= 8.0
    elapsed = time.monotonic() - t0
    passed = ok_drift and ratios_ok
    detail = (
        f"H drift={coarse.h_drift:.2e}, I drift={coarse.i_drift:.2e}; halved-dt drifts "
        f"H={fine.h_drift:.2e}, I={fine.i_drift:.2e} (floor-exempt below {floor:g})"
    )
    return CheckResult(5, "chain invariants conserved under integration", passed, detail, elapsed)


def check_6_spectrum_symmetry() -> CheckResult:
    t0 = time.monotonic()
    picked = []
    quota = {V(1, 1): 2, V(2, 1): 2, V(1, 0): 1}
    for p, want in quota.items():
        taken = 0
        for label in classes_meeting_disk(p):
            if label.parallel or taken >= want:
                continue
            picked.append(label)
            taken += 1
    worst = 0.0
    for label in picked:
        params = CFParams.for_class(label.khat, label.p, 1.0)
        ev = truncated_spectrum(build("A", params, 200))
        for lam in ev:
            worst = max(
                worst,
                float(np.min(np.abs(ev + lam))),
                float(np.min(np.abs(ev - np.conj(lam)))),
            )
    elapsed = time.monotonic() - t0
    passed = len(picked) == 5 and worst < 1e-8
    detail = f"classes={[(l.khat.k1, l.khat.k2, l.p.k1, l.p.k2) for l in picked]}, worst asymmetry={worst:.2e}"
    return CheckResult(6, "spectrum symmetric under negation and conjugation", passed, detail, elapsed)


def check_7_resolvent() -> CheckResult:
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst_residual = 0.0
    bounds = {}
    for lam in (3.0, 3.0 + 1.0j, 0.5 - 4.0j):
        for _ in range(10):
            support = int(rng.integers(3, 16))
            y = np.zeros(support, dtype=complex)
            y[:] = rng.normal(size=support) + 1j * rng.normal(size=support)
            z = resolvent_apply(lam, y)
            yf = np.concatenate([y, np.zeros(len(z) - len(y), dtype=complex)])
            resid = np.max(np.abs(pattern(len(z)) @ z - lam * z - yf))
            worst_residual = max(worst_residual, float(resid))
        G = green_kernel(lam, 60, 80)
        bounds[str(lam)] = float(np.max(np.sum(np.abs(G), axis=1)))
    elapsed = time.monotonic() - t0
    ok_bounds = all(np.isfinite(v) for v in bounds.values())
    passed = worst_residual < 1e-9 and ok_bounds
    detail = f"worst residual={worst_residual:.2e}, row-sum bounds={ {k: round(v, 4) for k, v in bounds.items()} }"
    return CheckResult(7, "resolvent residual and uniform row-sum bound", passed, detail, elapsed)


def check_8_linearization() -> CheckResult:
    t0 = time.monotonic()
    report = jacobian_check(V(1, 1), 1.0, ModeSet.disk(5.0), h=1e-6)
    ok_jac = report.max_deviation < 1e-6

    # growth of an eigenmode-shaped perturbation; cutoff 8 so the retained
    # chain members resolve the eigenmode (see ledger: 5% is unattainable
    # with the 8-member truncation at cutoff 5)
    params = _golden_params()
    root = _find_golden_root(grid=6, box=(0.1, 0.6, 0.1, 0.6))
    growing = -root  # a < 0, so -root maps to the member with Re(a*lt) > 0
    target_rate = 2.0 * abs((params.a * root).real)

    modeset = ModeSet.disk(8.0)
    p = V(1, 1)
    spec_members = [n for n in range(-20, 21) if 2 * n * n + 2 * n + 1 <= 64]
    n_min, n_max = min(spec_members), max(spec_members)
    amps = mode_amplitudes(params, growing, 1.0, n_min, n_max)

    eps = 1e-6
    base = fixed_point(p, 1.0, modeset)
    pert = {V(1 + n, n): eps * amps[j] for j, n in enumerate(range(n_min, n_max + 1))}
    fld = VorticityField(modeset, base.coeffs + VorticityField.from_dict(modeset, pert).coeffs)

    traj = integrate_euler(fld, dt=0.02, steps=3000, sample_every=30)
    base_full = base.full_vector()
    enstrophy = np.array(
        [np.sum(np.abs(traj.field(i).full_vector() - base_full) ** 2) for i in range(len(traj.times))]
    )
    rate = fit_growth_rate(traj.times, enstrophy)
    ok_rate = abs(rate - target_rate) / target_rate < 0.05

    elapsed = time.monotonic() - t0
    passed = ok_jac and ok_rate
    detail = (
        f"jacobian max deviation={report.max_deviation:.2e}; nonlinear growth rate={rate:.6f} "
        f"vs 2|Re(a*root)|={target_rate:.6f} ({abs(rate - target_rate) / target_rate:.2%})"
    )
    return CheckResult(8, "linearization consistency and perturbation growth", passed, detail, elapsed)


def check_9_nonlinear_conservation() -> CheckResult:
    t0 = time.monotonic()
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
    rhs_norms = [
        float(np.max(np.abs(euler_rhs(f).coeffs))) if len(euler_rhs(f).coeffs) else 0.0
        for f in (ray, circle)
    ]
    ok_families = max(rhs_norms) < 1e-14

    elapsed = time.monotonic() - t0
    passed = ok_drift and ok_families
    detail = (
        f"E drift={traj.e_drift:.2e}, J drift={traj.j_drift:.2e}, "
        f"fixed-family rhs norms={rhs_norms}"
    )
    return CheckResult(9, "nonlinear invariants and equilibrium families", passed, detail, elapsed)


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
