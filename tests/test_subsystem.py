import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euler_spectra.errors import DomainError, NumericalError, UsageError
from euler_spectra import subsystem
from euler_spectra.lattice import WaveVector, canonical_label, det, triad_coeff
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


def test_integrate_rejects_bad_steps():
    for dt, steps, every in ((0.0, 5, 1), (1e-2, 0, 1), (1e-2, 5, 0)):
        with pytest.raises(DomainError):
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
    assert classify_stability(canonical_label(V(2, 2), V(1, 1))).kind is StabilityKind.PARALLEL_TRIVIAL

    udt = classify_stability(canonical_label(V(3, 0), V(1, 1)))
    assert udt.kind is StabilityKind.STABLE_UDT
    assert udt.sigma == pytest.approx(5.0 / 3.0, abs=1e-12)

    both = classify_stability(canonical_label(V(-1, 1), V(1, 1)))
    assert both.kind is StabilityKind.STABLE_HALF_CLASS_BOTH
    assert both.sigma is not None and both.sigma > 0

    assert classify_stability(canonical_label(V(1, 0), V(1, 1))).kind is StabilityKind.UNDETERMINED


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
    verdict = classify_stability(label)
    m = label.khat.norm2
    if m == p.norm2:
        # a minimal member on the circle has both neighbours outside it
        assert label.member(1).norm2 > p.norm2 and label.member(-1).norm2 > p.norm2
        assert verdict.kind is StabilityKind.STABLE_HALF_CLASS_BOTH
        assert verdict.sigma == max(k.norm2 / (k.norm2 - p.norm2) for k in (label.member(1), label.member(-1)))
    elif m > p.norm2:
        assert not on_circle and verdict.kind is StabilityKind.STABLE_UDT
    else:
        assert verdict.kind is StabilityKind.UNDETERMINED
    assert {kind.value for kind in StabilityKind} == {
        "ParallelTrivial", "StableUDT", "StableHalfClassBoth", "Undetermined"
    }


def test_udt_bound_holds_along_trajectories():
    spec = SubsystemSpec(khat=V(3, 0), p=V(1, 1), gamma=1.0, n_min=-12, n_max=12)
    sigma = classify_stability(canonical_label(spec.khat, spec.p)).sigma
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
    with pytest.raises(DomainError):
        fit_growth_rate(t, series - 10.0)


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
