"""Acceptance gate: each numbered check runs at its pinned tolerance and
prints one pass/fail line.

Check 1 compares the solver's golden root with two constants: to 1e-10
with GOLDEN_ROOT, the root to 25 digits derived independently at 40-digit
precision (tests/test_golden_root.py recomputes it), and to 1e-8 with the
published 14-digit REFERENCE_ROOT, which is kept verbatim although it is
6.8e-9 from the true root.
"""

import numpy as np
import pytest

from euler_spectra import cli, verification
from euler_spectra.euler_core import ModeSet
from euler_spectra.lattice import triad_coeff
from euler_spectra.verification import CHECKS, V


@pytest.mark.parametrize("check", CHECKS, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index}: {result.detail}"


@pytest.mark.parametrize("check", CHECKS, ids=lambda fn: fn.__name__)
def test_check_detail_is_reproducible(check):
    # wall-clock times stay out of the detail, so two verify runs print the same
    first, second = check().detail, check().detail
    assert first == second
    assert "runtime" not in first


def test_check_5_order_ratio_stands_above_rounding(monkeypatch):
    # the order test compares two runs over the same time, the second at
    # half the step; a ratio of drifts at the rounding floor tests nothing
    runs = []
    integrate = verification.integrate

    def recording(spec, state0, dt, steps, sample_every=1):
        traj = integrate(spec, state0, dt=dt, steps=steps, sample_every=sample_every)
        runs.append((dt, steps, traj))
        return traj

    monkeypatch.setattr(verification, "integrate", recording)
    assert verification.check_5_conservation().passed
    pairs = [
        (big, half)
        for big in runs
        for half in runs
        if half[0] * 2 == big[0] and half[1] == 2 * big[1]
    ]
    assert len(pairs) == 1
    for _, _, traj in pairs[0]:
        assert traj.h_drift > 1e-12 and traj.i_drift > 1e-12


def test_check_4_detail_is_pinned():
    # the 20 states integrated as one batch give the detail the one-by-one
    # runs gave, digit for digit
    assert verification.check_4_stability_theorems().detail == (
        "sigma=1.6666666666666667, worst enstrophy ratio=1.133676 (bound 1.666667), "
        "N=200 section eigenvalues with Re > 1e-8|b|: 0"
    )


def test_check_6_fails_on_an_asymmetric_section(monkeypatch):
    # one diagonal entry of 1e-3 |b| at the chain index n = 1 breaks the
    # +- symmetry that a zero diagonal gives: 1.05e-4 on the golden section
    # alone, far above the check's 1e-8 bound
    op = verification.build("A", verification._golden_params(), 200)
    asymmetry = verification._spectrum_asymmetry

    def perturbed(T):
        T = T.copy()
        T[100, 100] += 1e-3 * abs(op.b)
        return asymmetry(T)

    golden = perturbed(np.diag(op.chain[1:], 1) + np.diag(op.chain[:-1], -1))
    assert golden == pytest.approx(1.05e-4, rel=0.01)
    monkeypatch.setattr(verification, "_spectrum_asymmetry", perturbed)
    result = verification.check_6_spectrum_symmetry()
    assert not result.passed
    assert float(result.detail.rsplit("=", 1)[1]) >= golden


def _coupling_bound(p, modeset):
    """Largest row sum of the moduli of the coupling linearized at the pump
    fixed point with Gamma = 1, the matrix jacobian_check compares with."""
    modes = modeset.modes
    coupling = np.zeros((len(modes), len(modes)), dtype=complex)
    for r, k in enumerate(modes):
        km, kp = k - p, k + p
        if not km.is_zero and km in modeset:
            coupling[r, modeset.index(km)] += triad_coeff(p, km)
        if not kp.is_zero and kp in modeset:
            coupling[r, modeset.index(kp)] += triad_coeff(-p, kp)
    return float(np.max(np.sum(np.abs(coupling), axis=1)))


def test_check_8_step_gives_the_rate_of_the_five_times_finer_step(monkeypatch):
    # check 8 at its own step and at dt = 0.02 (3000 steps, a sample every
    # 30): the same sample times, rates within 1e-9 relative, and its step
    # inside RK4's imaginary-axis bound for the K = 8 coupling
    dts, fits = [], []
    integrate_euler, fit = verification.integrate_euler, verification.fit_growth_rate

    def recording(times, series):
        rate = fit(times, series)
        fits.append((times, rate))
        return rate

    def stepping(field0, dt, steps, sample_every=1):
        dts.append(dt)
        return integrate_euler(field0, dt=dt, steps=steps, sample_every=sample_every)

    monkeypatch.setattr(verification, "fit_growth_rate", recording)
    monkeypatch.setattr(verification, "integrate_euler", stepping)
    assert verification.check_8_linearization().passed
    monkeypatch.setattr(verification, "integrate_euler", lambda field0, **_: integrate_euler(field0, 0.02, 3000, 30))
    assert verification.check_8_linearization().passed

    (dt,) = dts
    (times, rate), (fine_times, fine_rate) = fits
    assert len(times) == len(fine_times) == 101
    # step * dt rounds differently at the two steps, in the last bits only
    np.testing.assert_allclose(times, fine_times, rtol=0, atol=1e-12)
    assert abs(rate - fine_rate) <= 1e-9 * abs(fine_rate)
    assert dt * _coupling_bound(V(1, 1), ModeSet.disk(8.0)) <= cli.RK4_BOUND


def test_check_8_fails_on_a_weakened_pump(monkeypatch):
    # 0.9 Gamma on the pump slows the growth to 0.9 times the rate, 10% off
    # the target and outside the check's 5% tolerance
    fixed_point = verification.fixed_point
    assert verification.check_8_linearization().passed
    monkeypatch.setattr(verification, "fixed_point", lambda p, gamma, modeset: fixed_point(p, 0.9 * gamma, modeset))
    result = verification.check_8_linearization()
    assert not result.passed
    assert "nonlinear growth rate=0.222286 " in result.detail


def test_check_8_detail_is_pinned():
    assert verification.check_8_linearization().detail == (
        "jacobian max deviation=5.55e-16; nonlinear growth rate=0.246963 "
        "vs 2|Re(a*root)|=0.248223 (0.51%)"
    )
