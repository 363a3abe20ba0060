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

from euler_spectra import verification
from euler_spectra.verification import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index}: {result.detail}"


@pytest.mark.parametrize("check", CHECKS[:2], ids=lambda fn: fn.__name__)
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
