import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euler_spectra import euler_core
from euler_spectra.errors import NumericalError, UsageError
from euler_spectra.euler_core import (
    ModeSet,
    VorticityField,
    _rhs_workspace,
    conserved,
    euler_rhs,
    fixed_point,
    integrate_euler,
    jacobian_check,
)
from euler_spectra.lattice import WaveVector, triad_coeff
from euler_spectra.subsystem import ComplexSeq, SubsystemSpec, _rk4, _rk4_increment, integrate

V = WaveVector
K5 = ModeSet.disk(5.0)


def random_field(modeset, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    n = len(modeset.representatives)
    return VorticityField(modeset, scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


def stage_formula(rhs, dt):
    """The classical RK4 increment of d/dt w = rhs(w), each stage a new
    array, as written out: the oracle of subsystem._rk4_increment."""

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


def test_modeset_disk_counts():
    assert len(K5.modes) == 80  # 40 +-pairs
    assert len(K5.representatives) == 40
    assert all((-k) in K5 for k in K5.modes)


def test_field_reality_enforced():
    fld = VorticityField.from_dict(K5, {V(1, 1): 2.0 + 1.0j})
    assert fld.value(V(1, 1)) == 2.0 + 1.0j
    assert fld.value(V(-1, -1)) == 2.0 - 1.0j
    # consistent duplicate is fine
    VorticityField.from_dict(K5, {V(1, 1): 1j, V(-1, -1): -1j})
    with pytest.raises(UsageError, match="conflicting values"):
        VorticityField.from_dict(K5, {V(1, 1): 1j, V(-1, -1): 1j})


def test_euler_rhs_zero_field():
    out = euler_rhs(VorticityField.zero(K5))
    assert np.all(out.coeffs == 0)


def test_rhs_is_zero_when_no_triad_fits():
    # at cutoff 1 no sum of two modes is a mode
    out = euler_rhs(random_field(ModeSet.disk(1.0), seed=5))
    assert np.max(np.abs(out.coeffs)) < 1e-16


def test_fixed_point_is_stationary():
    fld = fixed_point(V(1, 1), 1.0, K5)
    assert np.max(np.abs(euler_rhs(fld).coeffs)) < 1e-14
    complex_pump = fixed_point(V(2, 1), 0.8 - 0.6j, K5)
    assert np.max(np.abs(euler_rhs(complex_pump).coeffs)) < 1e-14


def test_ray_and_circle_families_are_fixed_points():
    # single-ray support
    ray = VorticityField.from_dict(K5, {V(1, 2): 0.3 + 0.4j, V(2, 4): -0.2j})
    assert np.max(np.abs(euler_rhs(ray).coeffs)) < 1e-14
    # single-circle support: |k|^2 = 5
    circle = VorticityField.from_dict(
        K5, {V(1, 2): 1.0, V(2, 1): 0.5j, V(-1, 2): -0.25, V(2, -1): 0.1 - 0.9j}
    )
    assert np.max(np.abs(euler_rhs(circle).coeffs)) < 1e-14


def test_reality_preserved_by_rhs():
    fld = random_field(K5, seed=1)
    out = euler_rhs(fld)
    full = out.full_vector()
    for i, k in enumerate(K5.modes):
        j = K5.index(-k)
        assert abs(full[i] - np.conj(full[j])) < 1e-14


def pair_sum(modeset, full):
    """The Galerkin sum over unordered pairs {p, q}, p + q = k, written
    straight from triad_coeff: the oracle for the transform right-hand side."""
    out = np.zeros(len(modeset.modes), dtype=complex)
    for i, p in enumerate(modeset.modes):
        for j in range(i, len(modeset.modes)):
            q = modeset.modes[j]
            k = p + q
            if not k.is_zero and k in modeset:
                out[modeset.index(k)] += triad_coeff(p, q) * full[i] * full[j]
    return out


def with_far_pairs(radius, far):
    """The disk of the given radius plus the +-pairs of each vector in far
    that lies outside it."""
    modes = list(ModeSet.disk(radius).modes)
    for k in far:
        if k.norm2 > radius * radius and k not in modes:
            modes += [k, -k]
    return ModeSet(cutoff=float(radius), modes=tuple(modes))


@st.composite
def mode_sets(draw):
    """Disks of radius 2 to 8, some with far +-pairs outside the disk, so
    the transform grid is sized by the modes, not by the cutoff."""
    far = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: V(*t))
    return with_far_pairs(draw(st.integers(2, 8)), draw(st.lists(far, max_size=3)))


# K = 7: (7,1) + (7,2) = (14,3) aliases onto -(7,-3), a member, on 3K = 21
# points per axis, not on 3K + 1; on a disk alone only parallel pairs, whose
# coefficient is zero, reach a component 2K
@example(with_far_pairs(2, [V(7, 1), V(7, 2), V(7, -3)]), 0)
@example(with_far_pairs(2, [V(0, 7)]), 0)
@given(mode_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rhs_matches_the_pair_sum_and_reuses_no_result(modeset, seed):
    fields = [random_field(modeset, seed=s) for s in (seed, seed + 1)]
    first = euler_rhs(fields[0])
    kept = first.coeffs.copy()
    for fld in fields:
        want = pair_sum(modeset, fld.full_vector())
        got = euler_rhs(fld).full_vector()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # a later call leaves an earlier result alone
    assert np.array_equal(first.coeffs, kept)


# the empty set and a single +-pair: no triad fits, on a K = 0 and a K = 1 grid
@example(ModeSet(cutoff=0.5, modes=()), 0, -300)
@example(ModeSet(cutoff=1.0, modes=(V(1, 0), V(-1, 0))), 0, 250)
@given(mode_sets(), st.integers(0, 2**32 - 1), st.integers(-300, 250))
@settings(max_examples=25, deadline=None)
def test_rhs_scales_exactly_by_a_power_of_two(modeset, seed, j):
    # the sum is quadratic and the grid scale a power of two, so scaling the
    # state by 2^j scales the result by 4^j bit for bit
    coeffs = random_field(modeset, seed=seed).coeffs
    got = _rhs_workspace(modeset)(2.0**j * coeffs)
    assert got.shape == coeffs.shape
    assert np.array_equal(got, 4.0**j * _rhs_workspace(modeset)(coeffs))
    if len(coeffs) <= 1:
        assert not np.any(got)


def test_rhs_of_a_strided_coefficient_view():
    coeffs = np.repeat(random_field(K5, seed=2).coeffs, 2)
    got = euler_rhs(VorticityField(K5, coeffs[::2])).coeffs
    assert np.array_equal(got, euler_rhs(VorticityField(K5, coeffs[::2].copy())).coeffs)


def test_workspace_returns_a_new_array_each_call():
    # without out, each call returns a new array: euler_rhs and
    # jacobian_check hold a result while later calls run
    rhs = _rhs_workspace(K5)
    c1, c2 = (random_field(K5, seed=s).coeffs for s in (5, 6))
    r1 = rhs(c1)
    kept = r1.copy()
    r2 = rhs(c2)
    assert np.array_equal(r1, kept) and r2 is not r1
    again = rhs(c1)
    assert again is not r1 and np.array_equal(again, kept)


@pytest.mark.parametrize("cutoff", [5.0, 8.0])
def test_integrate_euler_reuse_matches_a_fresh_workspace_per_call(cutoff):
    modeset = ModeSet.disk(cutoff)
    field0 = random_field(modeset, seed=7, scale=0.2)
    traj = integrate_euler(field0, dt=1e-3, steps=200, sample_every=20)
    increment = stage_formula(lambda w: _rhs_workspace(modeset)(w), 1e-3)
    w = field0.coeffs.copy()
    _, fresh = _rk4(lambda: increment(w), w, 1e-3, 200, 20)
    assert np.array_equal(traj.coeffs, fresh)


def oracle_workspace(modeset):
    """The transform right-hand side as it was before it wrote into its
    caller's buffer, kept as the oracle of _rhs_workspace: each call
    returns a new array, and the x-synthesis leaves w_x, psi_x, w_y and
    psi_y as views of every other row."""
    scatter, layers, sy, sx, dsx, ax, ay, gather = modeset.transform
    m = sx.shape[1]
    grid = np.zeros((sy.shape[1], sx.shape[0]), dtype=complex)
    synth = np.empty((sy.shape[0], sx.shape[0]), dtype=complex)
    ys, xsynth = synth.view(float).reshape(2, 2 * m, -1), np.stack((dsx, sx))
    xs = np.empty((2, 2 * m, m))
    (w_x, psi_x), (w_y, psi_y) = xs.reshape(2, m, 2, m).transpose(0, 2, 1, 3)
    jac, cross = np.empty((m, m)), np.empty((m, m))
    xa, ya = np.empty((m, ax.shape[1])), np.empty((ay.shape[0], ax.shape[1] // 2), dtype=complex)

    def rhs(coeffs):
        scale = math.ldexp(1.0, -math.frexp(np.abs(coeffs.view(float)).max(initial=1.0))[1])
        grid.reshape(-1)[scatter] = (scale * coeffs)[:, None] * layers
        np.matmul(sy, grid, out=synth)
        np.matmul(ys, xsynth, out=xs)
        np.subtract(np.multiply(w_x, psi_y, out=jac), np.multiply(w_y, psi_x, out=cross), out=jac)
        np.matmul(jac, ax, out=xa)
        out = np.matmul(ay, xa.view(complex), out=ya).take(gather)
        out /= scale
        out /= scale
        return out

    return rhs


@np.errstate(over="ignore", invalid="ignore")
def oracle_run(field0, dt, steps, sample_every):
    """(samples, E drift, J drift) of a run, or the start of its
    NumericalError message, by a loop that steps w = w + increment(w) with
    the oracle right-hand side and stage formula and checks every step."""
    increment = stage_formula(oracle_workspace(field0.modeset), dt)
    w = field0.coeffs
    samples = [w]
    for step in range(1, steps + 1):
        w = w + increment(w)
        if not np.isfinite(w).all():
            return f"non-finite state at step {step}$"
        if step % sample_every == 0 or step == steps:
            samples.append(w)
    series = np.array([conserved(VorticityField(field0.modeset, c))[:2] for c in samples])
    drifts = np.max(np.abs(series - series[0]), axis=0) / np.maximum(np.abs(series[0]), 1e-300)
    for name, drift in zip("EJ", drifts):
        if not np.isfinite(drift):
            return f"{name} drift is not finite"
    return np.array(samples), drifts[0], drifts[1]


@example(ModeSet.disk(8.0), 0, 0, 1e-2, 7, 40)
@example(ModeSet.disk(12.0), 1, 0, 1e-2, 7, 40)
@example(ModeSet.disk(5.0), 2, 250, 0.1, 1, 10)  # overflows at step 2
@given(
    mode_sets(),
    st.integers(0, 2**32 - 1),
    st.integers(-300, 250),
    st.sampled_from([1e-3, 1e-2, 0.1]),
    st.integers(1, 20),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_in_place_triad_steps_equal_the_allocating_loop_bit_for_bit(modeset, seed, j, dt, sample_every, steps):
    # integrate_euler steps in place through buffers made once per call;
    # the oracle allocates every stage and checks every step
    field0 = VorticityField(modeset, 2.0**j * random_field(modeset, seed=seed, scale=0.2).coeffs)
    want = oracle_run(field0, dt, steps, sample_every)
    if isinstance(want, str):
        with pytest.raises(NumericalError, match=f"^{want}"):
            integrate_euler(field0, dt=dt, steps=steps, sample_every=sample_every)
        return
    traj = integrate_euler(field0, dt=dt, steps=steps, sample_every=sample_every)
    assert np.array_equal(traj.coeffs, want[0])
    assert (traj.e_drift, traj.j_drift) == want[1:]


@pytest.mark.parametrize("sample_every", [1, 7, 10, 1000])
def test_a_triad_blow_up_names_the_step_a_check_per_step_names(sample_every):
    # the in-place loop checks only its samples and replays the interval
    # of a failed one; a loop that checks after every step names step 21
    field0 = fixed_point(V(1, 1), 1.0, K5)
    rng = np.random.default_rng(0)
    field0.coeffs += 0.3 * (rng.normal(size=len(field0.coeffs)) + 1j * rng.normal(size=len(field0.coeffs)))
    increment, w = stage_formula(_rhs_workspace(K5), 0.8), field0.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 1001):
            w = w + increment(w)
            if not np.isfinite(w).all():
                break
    assert step == 21
    kept = field0.coeffs.copy()
    with pytest.raises(NumericalError, match=f"^non-finite state at step {step}$"):
        integrate_euler(field0, dt=0.8, steps=1000, sample_every=sample_every)
    assert np.array_equal(field0.coeffs, kept)  # the loop steps a copy


@np.errstate(invalid="ignore")
def test_workspace_keeps_no_state_from_a_nan_call():
    rhs = _rhs_workspace(K5)
    coeffs = random_field(K5, seed=8).coeffs
    poisoned = coeffs.copy()
    poisoned[3] = np.nan
    assert np.isnan(rhs(poisoned)).any()
    assert np.array_equal(rhs(coeffs), _rhs_workspace(K5)(coeffs))
    out = np.empty_like(coeffs)
    assert np.isnan(rhs(poisoned, out)).any()
    assert rhs(coeffs, out).tobytes() == _rhs_workspace(K5)(coeffs).tobytes()


@pytest.mark.parametrize("cutoff", [1.0, 5.0, 12.0])
def test_workspace_writes_into_out_the_bits_it_returns_without(cutoff):
    modeset = ModeSet.disk(cutoff)
    rhs = _rhs_workspace(modeset)
    for seed, j in ((9, 0), (10, -200), (11, 200)):
        coeffs = 2.0**j * random_field(modeset, seed=seed).coeffs
        out = np.full_like(coeffs, np.nan)
        assert rhs(coeffs, out) is out
        assert out.tobytes() == rhs(coeffs).tobytes()


def test_in_place_increment_leaves_the_state_alone_and_reuses_its_buffer():
    modeset = ModeSet.disk(8.0)
    w = random_field(modeset, seed=12, scale=0.2).coeffs
    kept = w.copy()
    increment = _rk4_increment(_rhs_workspace(modeset), 0.02, w)
    first = increment()
    assert np.array_equal(w, kept)
    assert np.array_equal(first, stage_formula(_rhs_workspace(modeset), 0.02)(kept))
    assert increment() is first


def test_conserved_frozen_values():
    E, J, I = conserved(VorticityField.zero(K5), V(1, 1))
    assert (E, J, I) == (0.0, 0.0, 0.0)

    fp = fixed_point(V(1, 1), 1.0, K5)
    E, J, I = conserved(fp, V(1, 1))
    assert E == pytest.approx(0.5, abs=1e-15)
    assert J == pytest.approx(2.0, abs=1e-15)
    assert I == pytest.approx(0.0, abs=1e-15)

    single = VorticityField.from_dict(K5, {V(2, 0): 1.0})
    E, J, _ = conserved(single)
    assert E == pytest.approx(0.25, abs=1e-15)
    assert J == pytest.approx(2.0, abs=1e-15)


def test_energy_enstrophy_directional_derivative_vanishes():
    # E and J are conserved by the truncated dynamics in exact arithmetic;
    # both are quadratic so the central difference is exact
    for seed in range(5):
        fld = random_field(K5, seed=seed, scale=0.5)
        v = euler_rhs(fld)
        h = 1e-3
        for pick in (0, 1):
            up = conserved(VorticityField(K5, fld.coeffs + h * v.coeffs))[pick]
            dn = conserved(VorticityField(K5, fld.coeffs - h * v.coeffs))[pick]
            assert abs(up - dn) / (2 * h) < 1e-12 * max(1.0, abs(up))


@pytest.mark.parametrize("p, gamma", [(V(1, 1), 1.0), (V(2, 1), 0.8 - 0.6j)], ids=["p11_gamma1", "p21_gamma_complex"])
def test_jacobian_check_matches_linearization(p, gamma):
    # the polarization probe has no step error, only rounding
    assert jacobian_check(p, gamma, K5) < 1e-13


def test_jacobian_check_resolves_a_small_coefficient_error(monkeypatch):
    # one coupling off by 1e-12 shows as a deviation of 1e-12, above the
    # rounding floor of the probe
    exact = euler_core.triad_coeff

    def planted(a, b):
        return exact(a, b) + (1e-12 if (a, b) == (V(1, 1), V(1, 0)) else 0.0)

    monkeypatch.setattr(euler_core, "triad_coeff", planted)
    assert 0.5e-12 < jacobian_check(V(1, 1), 1.0, K5) < 2e-12


def test_jacobian_zero_when_gamma_zero():
    assert jacobian_check(V(1, 1), 0.0, K5) == 0.0


def test_jacobian_row_structure():
    # row k = (2,1): the only couplings are k' = (1,0) and k' = (3,2); the
    # right-hand side is quadratic, so half the difference at the unit
    # probes 1 and 1j is a Jacobian column with no step error
    p, gamma = V(1, 1), 1.0
    base = fixed_point(p, gamma, K5)
    k_row = K5.index(V(2, 1))
    unit = np.eye(len(K5.representatives))
    expected = {V(1, 0): triad_coeff(p, V(1, 0)) * gamma, V(3, 2): triad_coeff(-p, V(3, 2)) * np.conj(gamma)}
    assert expected[V(1, 0)] == pytest.approx(-0.25, abs=1e-15)
    assert expected[V(3, 2)] == pytest.approx(-11 / 52, abs=1e-15)

    def rhs_of(coeffs):
        return euler_rhs(VorticityField(K5, coeffs)).full_vector()

    row = {}
    for c, kc in enumerate(K5.representatives):
        d_re, d_im = (0.5 * (rhs_of(base.coeffs + v) - rhs_of(base.coeffs - v)) for v in (unit[c], 1j * unit[c]))
        row[kc] = 0.5 * (d_re - 1j * d_im)[k_row]
        row[-kc] = 0.5 * (d_re + 1j * d_im)[k_row]
    for kk, entry in row.items():
        assert abs(entry - expected.get(kk, 0.0)) < 1e-14, kk


def test_integrate_euler_fixed_point_constant():
    fp = fixed_point(V(1, 1), 1.0, K5)
    traj = integrate_euler(fp, dt=1e-2, steps=50)
    assert np.max(np.abs(traj.coeffs - traj.coeffs[0])) < 1e-14


def test_integrate_euler_conservation():
    fld = random_field(K5, seed=3, scale=0.2)
    traj = integrate_euler(fld, dt=1e-3, steps=1000, sample_every=100)
    assert traj.e_drift < 1e-8
    assert traj.j_drift < 1e-8


def test_integrate_euler_drifts_match_conserved():
    # E and J come from one embedding of all samples; each row must round
    # as the per-sample conserved() does, bit for bit
    for cutoff, seed in ((5.0, 3), (8.0, 4)):
        modeset = ModeSet.disk(cutoff)
        traj = integrate_euler(random_field(modeset, seed=seed, scale=0.2), dt=1e-3, steps=300, sample_every=30)
        series = np.array([conserved(traj.field(i))[:2] for i in range(len(traj.times))])
        drift = np.max(np.abs(series - series[0]), axis=0) / np.abs(series[0])
        assert (traj.e_drift, traj.j_drift) == (drift[0], drift[1])


def test_integrate_euler_overflow_is_numerical_failure():
    # the pump alone is a fixed point, so the state stays finite while
    # E and J overflow
    with pytest.raises(NumericalError, match="E drift is not finite"):
        integrate_euler(fixed_point(V(1, 1), 1e160, K5), dt=1e-2, steps=5)


def test_modeset_tables_are_per_instance():
    fresh = ModeSet.disk(5.0)
    assert fresh == K5 and fresh.transform is not K5.transform
    assert fresh.transform is fresh.transform
    # K = 5: two layers on a (11, 12) half-spectrum grid, M = 16 points
    scatter, layers, sy, sx, dsx, ax, ay, gather = fresh.transform
    assert scatter.shape == layers.shape == (40, 2) and gather.shape == (40,)
    assert sy.shape == (32, 11) and sx.shape == dsx.shape == (12, 16)
    assert ax.shape == (16, 12) and ay.shape == (11, 16)
    for a, b in zip(fresh.transform + fresh.embedding, K5.transform + K5.embedding):
        assert np.array_equal(a, b)


def test_perturbed_pump_tracks_linearized_chain():
    # seed the chain members of the class through (1,0) inside the cutoff
    # and compare the nonlinear evolution against the per-class integrator
    p = V(1, 1)
    eps = 1e-6
    spec = SubsystemSpec(khat=V(1, 0), p=p, gamma=1.0, n_min=-4, n_max=3)
    rng = np.random.default_rng(9)
    seed_vals = rng.normal(size=spec.width) + 1j * rng.normal(size=spec.width)

    chain0 = ComplexSeq(spec.n_min, eps * seed_vals)
    lin = integrate(spec, chain0, dt=1e-2, steps=100)

    base = fixed_point(p, 1.0, K5)
    pert = {spec.member(n): eps * seed_vals[j] for j, n in enumerate(spec.indices())}
    full0 = base.copy()
    for k, v in pert.items():
        reps = K5.representatives
        if k in reps:
            full0.coeffs[reps.index(k)] += v
        else:
            full0.coeffs[reps.index(-k)] += np.conj(v)
    nl = integrate_euler(full0, dt=1e-2, steps=100)

    base_full = base.full_vector()
    for sample, t in enumerate(nl.times):
        fld = nl.field(sample)
        delta = fld.full_vector() - base_full
        got = np.array([delta[K5.index(spec.member(n))] for n in spec.indices()])
        want = lin.states[sample]
        assert np.max(np.abs(got - want)) < 1e-4 * eps


def test_cutoff_is_capped():
    # the modes are listed at the cap; no transform table is built
    assert len(ModeSet.disk(float(euler_core.CUTOFF_CAP)).modes) == 12852
    with pytest.raises(UsageError, match="CUTOFF_CAP = 64, got 64.5"):
        ModeSet.disk(64.5)


def test_integrate_euler_rejects_bad_steps():
    with pytest.raises(UsageError, match="need dt > 0"):
        integrate_euler(VorticityField.zero(K5), dt=0.0, steps=5)


def test_fixed_point_requires_pump_in_set():
    with pytest.raises(UsageError):
        fixed_point(V(9, 9), 1.0, K5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ModeSet(1.0, (V(1, 0),)), UsageError, "negation-closed"),
        (lambda: VorticityField(ModeSet.disk(1.0), np.zeros(3)), UsageError, "representative count"),
        (lambda: VorticityField.from_dict(ModeSet.disk(1.0), {V(1, 1): 1.0}), UsageError, "outside the mode set"),
    ],
)
def test_euler_core_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
