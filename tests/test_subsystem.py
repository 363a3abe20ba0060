import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from euler_spectra.errors import NumericalError, UsageError
from euler_spectra import subsystem
from euler_spectra.lattice import WaveVector, canonical_label, circle_member, det, kappa, parallel, triad_coeff
from euler_spectra.subsystem import (
    ComplexSeq,
    StabilityKind,
    SubsystemSpec,
    classify_stability,
    cle_rhs,
    fit_growth_rate,
    half_invariants,
    hamiltonian,
    integrate,
    invariant_I,
)

V = WaveVector

GOLDEN = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-12, n_max=12)
STABLE = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-12, n_max=12)
PARALLEL = SubsystemSpec(khat=V(2, 2), p=V(1, 1), gamma=1.0 + 0.5j, n_min=-6, n_max=6)


def random_state(spec, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width)
    if spec.hole is not None:
        vals[spec.hole - spec.n_min] = 0.0
    return ComplexSeq(spec.n_min, scale * vals)


def test_cle_rhs_zero_state():
    assert cle_rhs(GOLDEN, ComplexSeq.zero(GOLDEN)).norm2 == 0.0


def test_cle_rhs_parallel_class_is_static():
    state = random_state(PARALLEL, seed=3)
    assert cle_rhs(PARALLEL, state).norm2 == 0.0


def test_cle_rhs_unit_mass_hand_values():
    state = ComplexSeq.unit(GOLDEN, 0)
    d = cle_rhs(GOLDEN, state)
    assert d[1] == pytest.approx(-0.25, abs=1e-15)
    assert d[-1] == pytest.approx(0.25, abs=1e-15)
    others = [n for n in range(GOLDEN.n_min, GOLDEN.n_max + 1) if n not in (-1, 1)]
    assert all(d[n] == 0 for n in others)


def test_cle_rhs_window_mismatch_rejected():
    narrow = SubsystemSpec(V(1, 0), V(1, 1), 1.0, -3, 3)
    with pytest.raises(UsageError):
        cle_rhs(GOLDEN, ComplexSeq.zero(narrow))


def test_hamiltonian_zero_and_real_cases():
    assert hamiltonian(GOLDEN, ComplexSeq.zero(GOLDEN)) == 0.0
    state = ComplexSeq.zero(GOLDEN)
    state[0] = 1.0
    state[1] = 2.0
    state[-2] = -0.5
    assert hamiltonian(GOLDEN, state) == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_hand_value():
    state = ComplexSeq.zero(GOLDEN)
    state[0] = 1.0
    state[1] = 1.0j
    assert hamiltonian(GOLDEN, state) == pytest.approx(0.15, abs=1e-15)


def test_invariant_I_hand_values():
    assert invariant_I(GOLDEN, ComplexSeq.zero(GOLDEN)) == 0.0
    assert invariant_I(GOLDEN, ComplexSeq.unit(GOLDEN, 0)) == pytest.approx(0.5, abs=1e-15)
    assert invariant_I(STABLE, ComplexSeq.unit(STABLE, -1)) == pytest.approx(-0.3, abs=1e-15)


def test_conservation_directional_derivatives_vanish():
    # H and I are quadratic, so the central-difference directional
    # derivative along the vector field is exact up to rounding
    for seed in range(5):
        state = random_state(GOLDEN, seed=seed)
        v = cle_rhs(GOLDEN, state)
        h = 1e-4
        for func in (hamiltonian, invariant_I):
            plus = func(GOLDEN, ComplexSeq(state.offset, state.values + h * v.values))
            minus = func(GOLDEN, ComplexSeq(state.offset, state.values - h * v.values))
            scale = max(abs(func(GOLDEN, state)), 1.0)
            assert abs(plus - minus) / (2 * h) < 1e-10 * scale


def test_rhs_matches_canonical_equations():
    # d/dt w_n = -i rho_n^{-1} dH/d(conj w_n), the Wirtinger derivative
    # assembled from finite-difference partials in Re/Im parts
    rho_w = GOLDEN.rho_window()
    h = 1e-6
    for seed in range(10):
        state = random_state(GOLDEN, seed=seed)
        rhs = cle_rhs(GOLDEN, state).values
        grad = np.zeros(GOLDEN.width, dtype=complex)
        for j in range(GOLDEN.width):
            for part, unit in ((0, 1.0), (1, 1.0j)):
                bumped = state.values.copy()
                bumped[j] += h * unit
                up = hamiltonian(GOLDEN, ComplexSeq(state.offset, bumped))
                bumped = state.values.copy()
                bumped[j] -= h * unit
                dn = hamiltonian(GOLDEN, ComplexSeq(state.offset, bumped))
                d = (up - dn) / (2 * h)
                grad[j] += 0.5 * d * (1.0 if part == 0 else 1.0j)
        expected = -1j * grad / rho_w
        assert np.max(np.abs(rhs - expected)) < 1e-6 * max(1.0, np.max(np.abs(rhs)))


def test_half_chains_decouple_on_circle():
    # |khat| = |p|: mass at n = -1 never reaches n >= 1, and n = 0 is
    # driven without feeding back
    spec = SubsystemSpec(khat=V(-1, 1), p=V(1, 1), gamma=0.7 + 0.2j, n_min=-10, n_max=10)
    state = ComplexSeq.unit(spec, -1)
    traj = integrate(spec, state, dt=1e-2, steps=400, sample_every=40)
    idx = spec.indices()
    upper = np.abs(traj.states[:, idx >= 1])
    assert np.max(upper) == 0.0
    # mass at n=0 feeds nothing anywhere (A(p, khat) = 0 kills both exits)
    d0 = cle_rhs(spec, ComplexSeq.unit(spec, 0))
    assert d0.norm2 == 0.0
    # I_plus and I_minus separately conserved along the flow
    i_pm = np.array([half_invariants(spec, traj.state(i)) for i in range(len(traj.times))])
    assert np.max(np.abs(i_pm - i_pm[0])) < 1e-10


def test_integrate_parallel_class_constant():
    state = random_state(PARALLEL, seed=1)
    traj = integrate(PARALLEL, state, dt=1e-2, steps=50)
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_integrate_conserves_on_stable_class():
    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-15, n_max=15)
    state = random_state(spec, seed=2)
    state = ComplexSeq(state.offset, state.values / np.sqrt(state.norm2))
    traj = integrate(spec, state, dt=1e-3, steps=1000, sample_every=100)
    assert traj.i_drift < 1e-8
    assert traj.h_drift < 1e-8


small_vecs = st.builds(V, st.integers(-3, 3), st.integers(-3, 3))


def _drift(series):
    return np.max(np.abs(series - series[0])) / abs(series[0])


@given(p=small_vecs, khat=small_vecs)
@settings(max_examples=10, deadline=None)
def test_integrate_drifts_match_public_invariants(p, khat):
    # the vectorized H and I series are the per-sample public invariants,
    # bit for bit, on random non-parallel classes
    assume(det(p, khat) != 0)
    spec = SubsystemSpec(khat=khat, p=p, gamma=0.8 - 0.6j, n_min=-8, n_max=8)
    traj = integrate(spec, random_state(spec, seed=4), dt=1e-3, steps=200, sample_every=20)
    samples = [traj.state(i) for i in range(len(traj.times))]
    h_series = np.array([hamiltonian(spec, s) for s in samples])
    i_series = np.array([invariant_I(spec, s) for s in samples])
    assert traj.h_drift == _drift(h_series)
    assert traj.i_drift == _drift(i_series)
    assert traj.h_drift < 1e-8
    assert traj.i_drift < 1e-8


def test_overflowing_invariants_are_numerical_failures():
    # the state is still finite after 30 steps of dt=100, but the
    # invariant series overflow
    with pytest.raises(NumericalError, match="drift is not finite"):
        integrate(GOLDEN, ComplexSeq.unit(GOLDEN, 0), dt=100.0, steps=30)
    with pytest.raises(NumericalError, match="non-finite state"):
        integrate(GOLDEN, ComplexSeq.unit(GOLDEN, 0), dt=100.0, steps=1000)


@given(p=small_vecs, khat=small_vecs, rows=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_batch_rows_equal_their_one_state_runs(p, khat, rows, seed):
    # one RK4 loop over a batch gives each row, bit for bit, the run of
    # that row alone, on random non-parallel classes
    assume(det(p, khat) != 0)
    spec = SubsystemSpec(khat=khat, p=p, gamma=0.8 - 0.6j, n_min=-8, n_max=8)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(rows, spec.width)) + 1j * rng.normal(size=(rows, spec.width))
    batch = integrate(spec, ComplexSeq(spec.n_min, vals), dt=1e-2, steps=60, sample_every=7)
    assert batch.states.shape == (rows, len(batch.times), spec.width)
    for row in range(rows):
        one = integrate(spec, ComplexSeq(spec.n_min, vals[row]), dt=1e-2, steps=60, sample_every=7)
        assert np.array_equal(one.times, batch.times)
        assert np.array_equal(one.states, batch.states[row])
        assert one.h_drift == batch.h_drift[row]
        assert one.i_drift == batch.i_drift[row]
        assert one.enstrophy_ratio == batch.enstrophy_ratio[row]
        assert all(type(v) is float for v in (one.h_drift, one.i_drift, one.enstrophy_ratio))
    assert np.array_equal(batch.state(2).values, batch.states[:, 2])


def test_zero_row_of_a_batch_keeps_ratio_one():
    vals = np.stack([random_state(STABLE, seed=s).values for s in range(3)])
    vals[1] = 0.0
    traj = integrate(STABLE, ComplexSeq(STABLE.n_min, vals), dt=1e-2, steps=50)
    assert traj.enstrophy_ratio[1] == 1.0
    assert traj.h_drift[1] == 0.0 and traj.i_drift[1] == 0.0
    assert np.all(traj.enstrophy_ratio[[0, 2]] > 1.0)


def test_one_overflowing_row_fails_the_batch():
    # the unit row's invariant series overflow (see the one-state test
    # above); the tiny and zero rows stay finite throughout
    unit = ComplexSeq.unit(GOLDEN, 0).values
    vals = np.stack([1e-200 * unit, unit, np.zeros_like(unit)])
    with pytest.raises(NumericalError, match="drift is not finite"):
        integrate(GOLDEN, ComplexSeq(GOLDEN.n_min, vals), dt=100.0, steps=30)


def test_batches_of_the_wrong_shape_are_usage_errors():
    for shape in ((3, GOLDEN.width + 1), (2, 3, GOLDEN.width), ()):
        with pytest.raises(UsageError):
            integrate(GOLDEN, ComplexSeq(GOLDEN.n_min, np.zeros(shape)), dt=1e-2, steps=5)


def test_invariants_refuse_a_batch():
    # the invariants are of one state; a batch is a usage error, named as
    # one, not a TypeError from float()
    circle = SubsystemSpec(khat=V(-1, 1), p=V(1, 1), gamma=1.0, n_min=-6, n_max=6)
    for spec, func in ((GOLDEN, hamiltonian), (GOLDEN, invariant_I), (circle, half_invariants)):
        batch = ComplexSeq(spec.n_min, np.ones((2, spec.width)))
        with pytest.raises(UsageError, match="shape"):
            func(spec, batch)


def test_window_is_capped():
    assert subsystem.WINDOW_CAP == 1 << 16
    assert SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-32768, n_max=32767).width == 65536
    with pytest.raises(UsageError, match=r"window \[-32768, 32768\] is capped at WINDOW_CAP = 65536 sites"):
        SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-32768, n_max=32768)


def test_steps_are_capped_before_any_step():
    def increment():
        raise AssertionError("no step may run past the cap")

    assert subsystem.STEPS_CAP == 1 << 20
    with pytest.raises(UsageError, match="STEPS_CAP = 1048576, got 1048577"):
        subsystem._rk4(increment, np.zeros(3, dtype=complex), 1e-3, subsystem.STEPS_CAP + 1, 1)


def test_integrate_rejects_bad_steps():
    for dt, steps, every in ((0.0, 5, 1), (1e-2, 0, 1), (1e-2, 5, 0)):
        with pytest.raises(UsageError, match="need dt > 0"):
            integrate(GOLDEN, ComplexSeq.unit(GOLDEN, 0), dt=dt, steps=steps, sample_every=every)


def test_integrator_order_visible_above_rounding_floor():
    spec = GOLDEN
    state = random_state(spec, seed=5)
    drifts = []
    for dt, steps in ((0.2, 50), (0.1, 100)):
        traj = integrate(spec, state, dt=dt, steps=steps)
        drifts.append(max(traj.i_drift, 1e-300))
    assert drifts[0] / drifts[1] > 8.0  # order >= 3 for the 4th-order scheme


def test_window_doubling_leaves_interior_unchanged():
    base = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-10, n_max=10)
    wide = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-20, n_max=20)
    state_b = ComplexSeq.zero(base)
    state_w = ComplexSeq.zero(wide)
    rng = np.random.default_rng(7)
    for n in range(-3, 4):
        val = complex(rng.normal(), rng.normal())
        state_b[n] = val
        state_w[n] = val
    tb = integrate(base, state_b, dt=1e-2, steps=100)
    tw = integrate(wide, state_w, dt=1e-2, steps=100)
    inner = range(-5, 6)
    fb = np.array([[ComplexSeq(base.n_min, s)[n] for n in inner] for s in tb.states])
    fw = np.array([[ComplexSeq(wide.n_min, s)[n] for n in inner] for s in tw.states])
    assert np.max(np.abs(fb - fw)) < 1e-10


def test_classify_stability_examples():
    assert classify_stability(V(2, 2), V(1, 1)).kind is StabilityKind.PARALLEL_TRIVIAL

    udt = classify_stability(V(3, 0), V(1, 1))
    assert udt.kind is StabilityKind.STABLE_UDT
    assert udt.sigma == pytest.approx(5.0 / 3.0, abs=1e-12)

    both = classify_stability(V(-1, 1), V(1, 1))
    assert both.kind is StabilityKind.STABLE_HALF_CLASS_BOTH
    assert both.sigma is not None and both.sigma > 0

    assert classify_stability(V(1, 0), V(1, 1)).kind is StabilityKind.UNDETERMINED


pumps = st.builds(V, st.integers(-6, 6), st.integers(-6, 6)).filter(lambda v: not v.is_zero)


@given(p=pumps, data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_class_has_at_most_one_member_on_the_circle(p, data):
    # start from a point on |k| = |p| (the quarter turn of p is always one),
    # or from any point, and walk the class
    r = int(np.sqrt(p.norm2))
    circle = [V(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b == p.norm2]
    anywhere = st.builds(V, st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: not v.is_zero)
    start = data.draw(st.sampled_from(circle) | anywhere)
    shift = data.draw(st.integers(-5, 5))
    assume(det(p, start) != 0 and not start.plus(shift, p).is_zero)
    members = [start.plus(n, p) for n in range(-30, 31)]
    on_circle = [k for k in members if k.norm2 == p.norm2]
    assert len(on_circle) <= 1

    label = canonical_label(start.plus(shift, p), p)
    verdict = classify_stability(label, p)
    m = label.norm2
    if m == p.norm2:
        # a minimal member on the circle has both neighbours outside it
        assert label.plus(1, p).norm2 > p.norm2 and label.plus(-1, p).norm2 > p.norm2
        assert verdict.kind is StabilityKind.STABLE_HALF_CLASS_BOTH
        assert verdict.sigma == max(k.norm2 / (k.norm2 - p.norm2) for k in (label.plus(1, p), label.plus(-1, p)))
    elif m > p.norm2:
        assert not on_circle and verdict.kind is StabilityKind.STABLE_UDT
    else:
        assert verdict.kind is StabilityKind.UNDETERMINED
    assert {kind.value for kind in StabilityKind} == {
        "ParallelTrivial", "StableUDT", "StableHalfClassBoth", "Undetermined"
    }


@given(p=st.builds(V, st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: not v.is_zero), khat=pumps)
@settings(max_examples=300, deadline=None)
def test_verdict_kind_agrees_with_kappa_and_the_circle_member(p, khat):
    # the verdict decides disk membership from norms; kappa and
    # circle_member decide it from the class members near the disk
    label = canonical_label(khat, p)
    kind = classify_stability(label, p).kind
    if parallel(label, p):
        assert kind is StabilityKind.PARALLEL_TRIVIAL
    elif kappa(khat, p) > 0:
        assert kind is StabilityKind.UNDETERMINED
    elif circle_member(khat, p) is not None:
        assert kind is StabilityKind.STABLE_HALF_CLASS_BOTH
    else:
        assert kind is StabilityKind.STABLE_UDT


def test_udt_bound_holds_along_trajectories():
    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-12, n_max=12)
    sigma = classify_stability(spec.khat, spec.p).sigma
    assert sigma == 5.0 / 3.0
    worst = 0.0
    for seed in range(5):
        state = random_state(spec, seed=seed)
        traj = integrate(spec, state, dt=1e-2, steps=500, sample_every=10)
        assert traj.enstrophy_ratio <= sigma * (1.0 + 1e-6)
        worst = max(worst, traj.enstrophy_ratio)
    assert worst <= 5.0 / 3.0 + 1e-6

    # zero state: ratio defined as 1
    traj0 = integrate(spec, ComplexSeq.zero(spec), dt=1e-2, steps=10)
    assert traj0.enstrophy_ratio == 1.0

    # single-mode sweeps stay under the bound too
    for n in range(-3, 4):
        traj = integrate(spec, ComplexSeq.unit(spec, n), dt=1e-2, steps=300, sample_every=10)
        assert traj.enstrophy_ratio <= sigma * (1.0 + 1e-6)


def test_fit_growth_rate_recovers_exponential():
    t = np.linspace(0.0, 10.0, 200)
    series = 3.0 * np.exp(0.37 * t)
    assert fit_growth_rate(t, series) == pytest.approx(0.37, rel=1e-10)
    # 4 samples, 2 of them in the window, are the fewest it fits
    assert fit_growth_rate(t[:4], series[:4]) == pytest.approx(0.37, rel=1e-10)
    with pytest.raises(UsageError, match="needs a positive series"):
        fit_growth_rate(t, series - 10.0)


_FIT_T = np.linspace(0.0, 10.0, 30)
_FIT_S = np.exp(0.5 * _FIT_T)


@pytest.mark.parametrize(
    "times, series, message",
    [
        # the window is the last third, where 1 to 3 samples leave one point:
        # the fit returned 0.25 for exp(0.5 t) at 2 and 3 samples and warned at 1
        *[(_FIT_T[:n], _FIT_S[:n], "at least 2 samples in its window") for n in (1, 2, 3)],
        # a value that is not finite in the window returned nan
        *[(np.r_[_FIT_T[:-1], bad], _FIT_S, "finite times and series") for bad in (np.nan, np.inf)],
        *[(_FIT_T, np.r_[_FIT_S[:-1], bad], "finite times and series") for bad in (np.nan, np.inf, -np.inf)],
        # equal times raised LAPACK's LinAlgError, or warned and returned a slope
        (np.zeros(30), _FIT_S, "strictly increasing times"),
        (np.r_[_FIT_T[:-2], _FIT_T[-3], _FIT_T[-3]], _FIT_S, "strictly increasing times"),
        (_FIT_T[::-1], _FIT_S, "strictly increasing times"),
        # both raised numpy's TypeError
        (_FIT_T, _FIT_S[:-1], "1-D times and series of one length"),
        (np.ones((3, 4)), np.ones((3, 4)), "1-D times and series of one length"),
    ],
)
def test_fit_growth_rate_refuses_a_series_it_cannot_fit(times, series, message):
    with pytest.raises(UsageError, match=message):
        fit_growth_rate(times, series)


def test_unstable_class_enstrophy_growth_rate():
    # time-domain oracle for the dominant eigenvalue magnitude: the
    # enstrophy of a generic state grows like exp(2 * 0.5 * 0.2482230 t)
    spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-45, n_max=45)
    state = random_state(spec, seed=11, scale=1e-3)
    traj = integrate(spec, state, dt=0.02, steps=4000, sample_every=20)
    enstrophy = np.sum(np.abs(traj.states) ** 2, axis=1)
    rate = fit_growth_rate(traj.times, enstrophy)
    assert rate == pytest.approx(0.24822301804110669, rel=0.05)


def test_hole_is_in_the_specs_own_indexing():
    # (2,2) - 2*(1,1) = 0 and (-1,-1) + 1*(1,1) = 0; the canonical label of
    # both classes is (1,1), whose own hole is at -1
    assert SubsystemSpec(V(2, 2), V(1, 1), 1.0, -6, 6).hole == -2
    assert SubsystemSpec(V(-1, -1), V(1, 1), 1.0, -6, 6).hole == 1
    assert SubsystemSpec(V(2, 2), V(1, 1), 1.0, -1, 6).hole is None  # outside the window
    assert SubsystemSpec(V(1, 1), V(2, 2), 1.0, -6, 6).hole is None  # (1,1) + n(2,2) never vanishes
    assert GOLDEN.hole is None


def _loop_couplings(spec):
    """cm, cp entry by entry from triad_coeff: the oracle for spec.tables."""
    cm = np.zeros(spec.width, dtype=complex)
    cp = np.zeros(spec.width, dtype=complex)
    for j, n in enumerate(spec.indices()):
        if spec.member(n).is_zero:
            continue
        lower, upper = spec.member(n - 1), spec.member(n + 1)
        if j > 0 and not lower.is_zero:
            cm[j] = triad_coeff(spec.p, lower) * spec.gamma
        if j < spec.width - 1 and not upper.is_zero:
            cp[j] = triad_coeff(-spec.p, upper) * np.conj(spec.gamma)
    return cm, cp


nonzero_vecs = st.builds(V, st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: not v.is_zero)
gammas = st.sampled_from([1.0, -2.0, 0.8 - 0.6j, 1.5j, 0.3 + 1.7j])


@given(p=nonzero_vecs, khat=nonzero_vecs, gamma=gammas, n_min=st.integers(-8, 0), n_max=st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_spec_couplings_equal_triad_coefficients(p, khat, gamma, n_min, n_max):
    # random classes, parallel ones with their hole and non-canonical khat
    # included; a hole slot may hold -0.0 where the loop leaves 0.0
    spec = SubsystemSpec(khat=khat, p=p, gamma=gamma, n_min=n_min, n_max=n_max)
    rho_w, cm, cp = spec.tables
    cm_loop, cp_loop = _loop_couplings(spec)
    assert np.array_equal(cm, cm_loop)
    assert np.array_equal(cp, cp_loop)
    if spec.hole is not None:
        assert rho_w[spec.hole - n_min] == 0.0


def test_spec_tables_are_read_only_and_built_once(monkeypatch):
    spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=0.7 + 0.2j, n_min=-10, n_max=10)
    calls = []
    real_rho = subsystem.rho
    monkeypatch.setattr(subsystem, "rho", lambda *args: calls.append(args) or real_rho(*args))
    state = random_state(spec, seed=9)
    cle_rhs(spec, state)
    hamiltonian(spec, state)
    invariant_I(spec, state)
    integrate(spec, state, dt=1e-2, steps=3)
    assert len(calls) == 1
    assert spec.rho_window() is spec.tables[0]
    for table in spec.tables:
        with pytest.raises(ValueError):
            table[0] = 1.0


def _stagewise(spec, dt):
    """The chain's RK4 increment stage by stage, each stage a new array, as
    written out: the oracle of the band."""
    rhs = subsystem._chain_rhs(spec)

    def increment(w):
        k = rhs(w)
        total = k
        k = rhs(w + 0.5 * dt * k)
        total = total + 2.0 * k
        k = rhs(w + 0.5 * dt * k)
        total = total + 2.0 * k
        k = rhs(w + dt * k)
        return (dt / 6.0) * (total + k)

    return increment


def _window(khat, p, gamma, width, offset):
    n_min = -(offset % width)
    return SubsystemSpec(khat=khat, p=p, gamma=gamma, n_min=n_min, n_max=n_min + width - 1)


def _random_rows(spec, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, spec.width)) + 1j * rng.normal(size=(3, spec.width))
    if spec.hole is not None:
        w[:, spec.hole - spec.n_min] = 0.0
    return w


chain_windows = dict(
    p=nonzero_vecs,
    khat=nonzero_vecs,
    gamma=gammas,
    width=st.integers(1, 20),
    offset=st.integers(0, 19),
    seed=st.integers(0, 2**32 - 1),
)


@given(**chain_windows, dt=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]))
@example(p=V(1, 1), khat=V(2, 2), gamma=1.0 + 0.5j, width=13, offset=6, seed=0, dt=0.1)  # parallel, hole at -2
@example(p=V(1, 1), khat=V(-1, 1), gamma=0.8 - 0.6j, width=13, offset=6, seed=1, dt=0.1)  # circle class
@example(p=V(2, 1), khat=V(1, 0), gamma=0.3 + 1.7j, width=5, offset=2, seed=2, dt=0.5)  # narrower than the band
@settings(max_examples=200, deadline=None)
def test_banded_increment_is_the_stage_formula(p, khat, gamma, width, offset, seed, dt):
    # random classes, parallel ones with their hole included, and windows
    # down to one member; the band reaches 4 neighbours on each side
    spec = _window(khat, p, gamma, width, offset)
    w = _random_rows(spec, seed)
    want = _stagewise(spec, dt)(w)
    increment, _ = subsystem._chain_increment(spec, dt, w)
    got = increment()
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@given(**chain_windows)
@settings(max_examples=50, deadline=None)
def test_chain_rhs_writes_into_out_what_it_returns_without(p, khat, gamma, width, offset, seed):
    spec = _window(khat, p, gamma, width, offset)
    w = _random_rows(spec, seed)
    rhs = subsystem._chain_rhs(spec)
    out = np.full_like(w, np.nan)
    assert rhs(w, out) is out
    assert out.tobytes() == rhs(w).tobytes()


@given(**chain_windows)
@example(p=V(1, 1), khat=V(2, 2), gamma=1.0 + 0.5j, width=13, offset=6, seed=0)
@example(p=V(1, 1), khat=V(-1, 1), gamma=0.8 - 0.6j, width=13, offset=6, seed=1)
@example(p=V(2, 1), khat=V(1, 0), gamma=0.3 + 1.7j, width=5, offset=2, seed=2)
@settings(max_examples=15, deadline=None)
def test_banded_steps_stay_with_the_stage_formula(p, khat, gamma, width, offset, seed):
    spec = _window(khat, p, gamma, width, offset)
    w = _random_rows(spec, seed)
    traj = integrate(spec, ComplexSeq(spec.n_min, w), dt=1e-2, steps=1000, sample_every=50)
    increment, buffer = _stagewise(spec, 1e-2), w.copy()
    _, oracle = subsystem._rk4(lambda: increment(buffer), buffer, 1e-2, 1000, 50)
    oracle = np.moveaxis(oracle, 0, -2)  # rows first, as in Trajectory.states
    assert np.max(np.abs(traj.states - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@np.errstate(over="ignore", invalid="ignore")
def _allocating_loop(spec, w, dt, steps, sample_every):
    """Samples of the chain's run, rows first, by a loop that allocates each
    step, w = w + (windows * band).sum(axis=-2), and checks finiteness after
    every step: the oracle of integrate's in-place loop."""
    band = subsystem._chain_band(spec, dt)
    padded = np.zeros(w.shape[:-1] + (spec.width + 8,), dtype=complex)
    windows = sliding_window_view(padded, spec.width, axis=-1)
    samples = [w]
    for step in range(1, steps + 1):
        padded[..., 4:-4] = w
        w = w + (windows * band).sum(axis=-2)
        if not np.isfinite(w).all():
            raise NumericalError(f"non-finite state at step {step}")
        if step % sample_every == 0 or step == steps:
            samples.append(w)
    return np.moveaxis(np.array(samples), 0, -2)


@given(
    **chain_windows,
    dt=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]),
    rows=st.sampled_from([0, 1, 3]),
    sample_every=st.integers(1, 120),
)
@example(p=V(1, 1), khat=V(2, 2), gamma=1.0 + 0.5j, width=13, offset=6, seed=0, dt=0.1, rows=3, sample_every=7)
@example(p=V(1, 0), khat=V(0, 4), gamma=-2.0, width=20, offset=10, seed=1, dt=0.5, rows=0, sample_every=100)
@settings(max_examples=60, deadline=None)
def test_in_place_steps_equal_the_allocating_loop_bit_for_bit(
    p, khat, gamma, width, offset, seed, dt, rows, sample_every
):
    # one state (rows = 0) or a batch; the couplings stay below 4 in size,
    # so 100 steps at dt = 0.5 grow a state by at most 7.6 per step and
    # neither the states nor the invariants overflow
    spec = _window(khat, p, gamma, width, offset)
    w = _random_rows(spec, seed)
    w = w[0] if rows == 0 else w[:rows]
    kept = w.copy()
    traj = integrate(spec, ComplexSeq(spec.n_min, w), dt=dt, steps=100, sample_every=sample_every)
    assert np.array_equal(w, kept)  # the loop steps a buffer of its own
    assert np.array_equal(traj.states, _allocating_loop(spec, w, dt, 100, sample_every))


@pytest.mark.parametrize("sample_every", [1, 7, 10, 1000])
def test_a_blow_up_names_the_step_a_check_per_step_names(sample_every):
    # the in-place loop checks only its samples and replays the interval
    # of a failed one step by step
    w = random_state(GOLDEN, seed=3).values
    with pytest.raises(NumericalError, match="^non-finite state at step 59$") as want:
        _allocating_loop(GOLDEN, w, 100.0, 1000, 1)
    with pytest.raises(NumericalError) as got:
        integrate(GOLDEN, ComplexSeq(GOLDEN.n_min, w), dt=100.0, steps=1000, sample_every=sample_every)
    assert str(got.value) == str(want.value)


def test_integrate_memory_is_linear_in_the_width():
    # a dense step matrix would take width^2 complex values, 6.4 GB here;
    # the band, its probes and the stages stay within 64 per member
    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=0.8 - 0.6j, n_min=-10000, n_max=10000)
    tracemalloc.start()
    try:
        integrate(spec, ComplexSeq.unit(spec, 0), dt=1e-2, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * spec.width * 16


def test_start_invariant_within_rounding_of_zero_reports_no_drift():
    # H(0) = -1.2e-15 is below the rounding of H's own evaluation (terms up
    # to its bound 0.25), so the drift is taken relative to that bound, as
    # for an exact-zero start; relative to |H(0)| it read 0.38
    spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=0.6 + 0.8j, n_min=-20, n_max=20)
    vals = ComplexSeq.unit(spec, 0).values.copy()
    vals[1 - spec.n_min] = 1e-14
    state = ComplexSeq(spec.n_min, vals)
    assert 0.0 < abs(hamiltonian(spec, state)) < 1e-14
    traj = integrate(spec, state, dt=1e-2, steps=1000)
    assert traj.h_drift < 1e-12
    assert traj.i_drift < 1e-12


@pytest.mark.parametrize("spec", [GOLDEN, STABLE])
def test_half_invariants_refuse_a_class_off_the_circle(spec):
    with pytest.raises(UsageError, match=r"only when \|khat\| = \|p\|"):
        half_invariants(spec, ComplexSeq.unit(spec, 0))
