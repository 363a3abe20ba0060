import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from euler_spectra import cli, contfrac, lattice
from euler_spectra.contfrac import (
    _DEPTH_REL_TOL,
    CFParams,
    _deepen,
    _match,
    _w_plus,
    a_n,
    band_distance,
    eigenvector_window,
    f_eigen,
    find_eigenvalues,
    find_eigenvalues_half,
    mode_amplitudes,
)
from euler_spectra.errors import NumericalError, UsageError
from euler_spectra.lattice import WaveVector, canonical_label, circle_member, det, kappa, rho
from euler_spectra.matrixop import (
    TruncatedOperator,
    build,
    classify_band_distance,
    detM_eigentest,
    truncated_spectrum,
)
from euler_spectra.subsystem import ComplexSeq, SubsystemSpec, cle_rhs
from euler_spectra.verification import _polish_detm_root

V = WaveVector

# published benchmark constant, accurate only in its leading ~8 digits
PRINTED_ROOT = 0.24822302478255 + 0.35172076526520j
# value the solver itself converges to, cross-checked against the dense
# matrix oracle to 2e-15 and against the time-domain growth rate
POLISHED_ROOT = 0.24822301804110669 + 0.35172076458544754j

GOLDEN = CFParams.for_class(V(1, 0), V(1, 1), 1.0)
STABLE = CFParams.for_class(V(2, -1), V(1, 1), 1.0)
# |khat| = |p| with two different half-chains: side -1 has a real root pair
CIRCLE = CFParams.for_class(V(2, -1), V(2, 1), 1.0)


class _ConstRho:
    """Constant-coefficient chain: rho_n identically the limit value."""

    def __init__(self, limit):
        self.limit = limit

    def take(self, n):
        return np.full(np.shape(n), self.limit)


def constant_params():
    p = CFParams.for_class(V(1, 0), V(1, 1), 1.0)
    p.rho_seq = _ConstRho(-0.5)
    return p


def test_cfparams_scale():
    assert GOLDEN.a == pytest.approx(-0.5, abs=1e-15)
    assert GOLDEN.rho_inf == -0.5
    assert GOLDEN.circle is None and CIRCLE.circle == V(2, -1)
    with pytest.raises(UsageError, match="parallel"):
        CFParams.for_class(V(2, 2), V(1, 1), 1.0)


def test_a_n_values():
    assert a_n(GOLDEN, 0.0, 5) == 0.0
    # n = 0 slot of the golden class: rho_0 = 1/2
    lam = GOLDEN.a * 1.0
    assert a_n(GOLDEN, lam, 0) == pytest.approx(2.0, abs=1e-15)
    # large |n| approaches the limit coefficient -lambda |p|^2 / a
    lam = GOLDEN.a * (0.3 + 0.4j)
    at = -lam * GOLDEN.p.norm2 / GOLDEN.a
    assert a_n(GOLDEN, lam, 4000) == pytest.approx(at, rel=1e-6)
    assert a_n(GOLDEN, lam, -4000) == pytest.approx(at, rel=1e-6)


def test_a_n_flags_circle_member():
    circle = CFParams.for_class(V(-1, 1), V(1, 1), 1.0)
    with pytest.raises(UsageError, match="use the half-chain solver"):
        a_n(circle, 1.0, 0)


def test_asym_roots_frozen_values():
    # w_minus = -1 / w_plus is the other root of w^2 - a_tilde w - 1 = 0
    w = _w_plus(np.array([3.0, 3.0j]))
    assert w[0] == pytest.approx((3 + np.sqrt(13)) / 2, abs=1e-14)
    assert -1.0 / w[0] == pytest.approx((3 - np.sqrt(13)) / 2, abs=1e-14)
    assert w[1] == pytest.approx(1j * (3 + np.sqrt(5)) / 2, abs=1e-14)
    assert -1.0 / w[1] == pytest.approx(1j * (3 - np.sqrt(5)) / 2, abs=1e-14)

    assert (band_distance(np.array([3.0, 3.0j, 2.5j]), 2.0) > 0).all()
    assert (band_distance(np.array([1.0j, -2.0j, 0j]), 2.0) == 0).all()


@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=50.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=300)
def test_asym_roots_invariants(at):
    # require a float-resolvable margin from the band segment, where the
    # strict inequality degenerates to |w| = 1
    if abs(at.real) < 1e-6 and abs(at) <= 2.0 + 1e-6:
        return
    w = complex(_w_plus(np.array(at)))
    assert abs(w * w - at * w - 1.0) < 1e-12 * max(1.0, abs(w)) ** 2
    assert abs(w) > 1.0 > abs(-1.0 / w)


def test_cf_tail_constant_chain_hits_exact_roots():
    params = constant_params()
    # a_tilde = -lt |p|^2 = -2 lt; pick lt so a_tilde = 3
    lt = np.array([-1.5])
    w_plus = (3 + np.sqrt(13)) / 2
    # each tail is seeded at its fixed point w_plus, so it stays there
    for side in (+1, -1):
        assert _match(params, lt, side, 64)[0][0] == pytest.approx(w_plus, abs=1e-13)
    # lower tail w_plus plus 1/(upper tail) 1/w_plus: w_plus - w_minus
    assert _match(params, lt, 0, 64)[0][0] == pytest.approx(np.sqrt(13), abs=1e-13)
    # K(1/3) as the positive fixed point of x = 1/(3 + x)
    k = w_plus - 3.0
    assert k == pytest.approx((np.sqrt(13) - 3) / 2, abs=1e-13)
    assert k == pytest.approx(1 / w_plus, abs=1e-13)


def _reference_match(params, lt, side, depth):
    """_match off the band written as plain per-index divisions by rho_n,
    each tail in its own sweep."""

    def sweep(ns):
        a_t = -lt * params.p.norm2
        u = _w_plus(a_t)
        du = u * -params.p.norm2 / (2.0 * u - a_t)
        for n in ns:
            r = params.rho_seq.value(n)
            u, du = lt / r + 1.0 / u, 1.0 / r - du / (u * u)
        return u, du

    with np.errstate(divide="ignore", invalid="ignore"):
        if side > 0:
            return sweep(range(depth, 0, -1))
        if side < 0:
            return sweep(range(-depth, 0))
        down, ddown = sweep(range(-depth, 1))
        up, dup = sweep(range(depth, 0, -1))
        return down + 1.0 / up, ddown - dup / (up * up)


@st.composite
def _chain_and_off_band_points(draw, bound=4):
    coord = st.integers(-bound, bound)
    p = draw(st.tuples(coord, coord).map(lambda t: V(*t)).filter(lambda v: not v.is_zero))
    khat = draw(st.tuples(coord, coord).map(lambda t: V(*t)).filter(lambda v: det(p, v) != 0))
    member = circle_member(khat, p)
    params = CFParams.for_class(khat if member is None else member, p, 1.0)
    half = params.band_halfwidth_tilde()
    sign = st.sampled_from([1.0, -1.0])
    zero = st.sampled_from([0.0, -0.0])
    part = st.floats(-3.0, 3.0)
    point = st.one_of(
        st.tuples(part, part),
        st.tuples(zero, st.tuples(sign, st.floats(1e-9, 3.0)).map(lambda t: t[0] * (half + t[1]))),
        st.tuples(st.tuples(sign, st.floats(1e-3, 3.0)).map(lambda t: t[0] * t[1]), zero),
        # next to the band tube: just outside, just inside, along the band
        st.tuples(
            st.tuples(sign, st.floats(0.5, 1.5)).map(lambda t: t[0] * t[1] * contfrac.BAND_TUBE),
            st.floats(-half, half),
        ),
    )
    pts = draw(st.lists(point, min_size=1, max_size=8))
    lt = np.array([complex(x, y) for x, y in pts])
    assume((band_distance(lt, half) > 0).all())
    sides = (0, +1, -1) if member is None else (+1, -1)
    return params, lt, sides, draw(st.integers(1, 300))


@given(_chain_and_off_band_points())
@settings(max_examples=60, deadline=None)
def test_paired_table_sweep_equals_per_index_division(case):
    # the paired sweep multiplies by a 1/rho table; numpy's complex division
    # by rho + 0j gives the same numbers, so the match is exact, not approx
    params, lt, sides, depth = case
    for side in sides:
        got, ref = _match(params, lt, side, depth), _reference_match(params, lt, side, depth)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and (g == r).all()


class _PerIndexRho:
    """The class's rho sequence read one index at a time from lattice.rho."""

    def __init__(self, params):
        self.params = params

    def take(self, n):
        values = [rho(self.params.khat, self.params.p, m) for m in np.ravel(n).tolist()]
        return np.reshape(values, np.shape(n))


def _same_bits(got, want):
    # the same bit pattern everywhere, and NaN (of any payload) exactly
    # where want has NaN
    g, w = (np.asarray(x).view(float) for x in (got, want))
    nan = np.isnan(w)
    return g.shape == w.shape and (np.isnan(g) == nan).all() and (g[~nan].view(np.int64) == w[~nan].view(np.int64)).all()


@given(
    _chain_and_off_band_points(bound=6),
    st.lists(st.integers(1, 300), min_size=2, max_size=3, unique=True).map(sorted),
)
@settings(max_examples=60, deadline=None)
def test_one_sweep_over_several_depths_gives_the_bits_of_one_call_per_depth(case, depths):
    # each depth's rows join the sweep at their own far end and read no
    # other row; points on the band (appended) come back NaN at every depth
    params, lt, sides, _ = case
    half = params.band_halfwidth_tilde()
    lt = np.append(lt, [0j, 0.5j * half, -1j * half])
    per_index = dataclasses.replace(params, rho_seq=_PerIndexRho(params))
    for side in sides:
        fused = _match(params, lt, side, tuple(depths))
        assert len(fused) == len(depths)
        for depth, got in zip(depths, fused):
            one = _match(params, lt, side, depth)
            # the sweep over the class's rho array against lattice.rho per index
            ref = _match(per_index, lt, side, depth)
            for g, o, r in zip(got, one, ref):
                assert _same_bits(g, o) and _same_bits(o, r)
                assert np.isnan(g[-3:]).all()


@pytest.mark.parametrize("k, p, side", [(V(1, 0), V(1, 1), 0), (V(2, -1), V(2, 1), -1), (V(2, -1), V(2, 1), +1)])
def test_a_search_step_sweeps_each_index_once_and_fills_rho_once(monkeypatch, k, p, side):
    # the default seed grid, where every seed settles at depth 128 on the
    # first Newton step: the depth-128 rows run alone over their far 64
    # indices, the depth-64 rows join them for the last 64, and the full
    # chain's (0,) step runs once for both; each index row is one loop turn
    sweep, lattice_rho = contfrac._sweep, lattice.rho
    indices, filled = [], []

    def counting_sweep(params, lt, ns, start):
        indices.append(len(ns))
        return sweep(params, lt, ns, start)

    def counting_rho(khat, p, n):
        filled.append(np.size(n))
        return lattice_rho(khat, p, n)

    monkeypatch.setattr(contfrac, "_sweep", counting_sweep)
    monkeypatch.setattr(lattice, "rho", counting_rho)
    params = CFParams.for_class(k, p, 1.0)
    grid = np.linspace(contfrac.BAND_TUBE, 4.0, 20)
    lt = (grid[:, None] + 1j * grid[None, :]).ravel()
    for _ in range(2):
        indices.clear()
        depth, _, _ = _deepen(lambda idx, ds: _match(params, lt[idx], side, ds), len(lt), 1e-14, _DEPTH_REL_TOL)
        assert (depth == 128).all()
        assert sum(indices) == 128 + (side == 0)
        # rho is one array over -128..128, filled by one call on the first step
        assert filled == [257] and len(params.rho_seq.values) == 257
    # an index past the array grows it to at least twice its reach, in one call
    assert params.rho_seq.value(-129) == rho(params.khat, p, -129)
    assert filled == [257, 513]


class _ZeroRhoAt:
    """The class's rho sequence with rho_n replaced by 0 at one index."""

    def __init__(self, params, n):
        self.params, self.n = params, n

    def take(self, n):
        return np.where(n == self.n, 0.0, rho(self.params.khat, self.params.p, n))


@pytest.mark.parametrize("n", [-3, 0, 5])
def test_a_zero_rho_in_the_sweep_raises_numerical_error(n):
    params = CFParams.for_class(V(1, 0), V(1, 1), 1.0)
    params.rho_seq = _ZeroRhoAt(params, n)
    member = re.escape(f"rho_{n} = 0 in floating point at the member {V(1, 0).plus(n, V(1, 1)).as_tuple()}")
    with pytest.raises(NumericalError, match=member):
        _match(params, np.array([0.3 + 0.4j, 1.0]), 0, 64)
    with pytest.raises(NumericalError, match=member):
        f_eigen(params, 0.3 + 0.4j)
    with pytest.raises(NumericalError, match=member):
        eigenvector_window(params, 0.3 + 0.4j, -8, 8)


def test_cf_tail_cauchy_in_tol():
    for tolerance in (1e-8, 1e-10, 1e-12):
        coarse = f_eigen(GOLDEN, 0.3 + 0.5j, tolerance)
        fine = f_eigen(GOLDEN, 0.3 + 0.5j, tolerance / 2)
        assert abs(coarse - fine) < tolerance


def test_cf_tail_converges_in_both_corollary_regimes():
    # off-axis lambda (Re a_tilde != 0) and imaginary lambda beyond the band
    lt = np.array([0.3 + 0.5j, -0.7 + 0.1j, 1.5j, -2.5j])
    for side in (0, +1, -1):
        assert np.isfinite(_match(GOLDEN, lt, side, 4096)[0]).all()
    for z in lt:
        assert np.isfinite(f_eigen(GOLDEN, z, 1e-12))


def test_f_eigen_at_published_value():
    # the published 14-digit value is only ~7e-9 from the true root, so |f|
    # lands near 3.6e-8 there; the solver's own root drives f to rounding
    val = f_eigen(GOLDEN, PRINTED_ROOT)
    assert abs(val) < 1e-7
    assert abs(f_eigen(GOLDEN, POLISHED_ROOT)) < 1e-12
    assert abs(POLISHED_ROOT - PRINTED_ROOT) < 1e-8


def test_f_eigen_rejects_band_points():
    with pytest.raises(NumericalError, match="lies on the essential band"):
        f_eigen(GOLDEN, 0.5j)
    with pytest.raises(NumericalError, match="lies on the essential band"):
        f_eigen(GOLDEN, 0.0)


def test_f_eigen_bounded_away_from_zero_for_disk_missing_class():
    grid = [complex(r, i) for r in np.linspace(0.05, 2.0, 9) for i in np.linspace(0.05, 2.0, 9)]
    vals = [abs(f_eigen(STABLE, lt)) for lt in grid]
    assert min(vals) > 1e-2


def test_f_eigen_real_part_sign_property():
    # all rho_n < 0 for the disk-missing class: Re f != 0 off the axis
    rng = np.random.default_rng(4)
    for _ in range(20):
        lt = complex(rng.uniform(0.05, 3.0) * rng.choice([-1, 1]), rng.uniform(-3.0, 3.0))
        assert abs(f_eigen(STABLE, lt).real) > 1e-12


def test_find_eigenvalues_golden_quadruple():
    quads = find_eigenvalues(GOLDEN, search_box=(0.05, 1.0, 0.05, 1.0), grid=20, tol=1e-12)
    assert len(quads) == 1
    q = quads[0]
    assert q.lambda_tilde == pytest.approx(POLISHED_ROOT, abs=1e-12)
    assert q.residual < 1e-12
    assert len(q.members) == 4
    # each orbit member is itself a root
    for m in q.members:
        assert abs(f_eigen(GOLDEN, m)) < 1e-10


def test_find_eigenvalues_deterministic():
    kwargs = dict(search_box=(0.05, 1.0, 0.05, 1.0), grid=8, tol=1e-12)
    first = find_eigenvalues(GOLDEN, **kwargs)
    second = find_eigenvalues(GOLDEN, **kwargs)
    assert [q.lambda_tilde for q in first] == [q.lambda_tilde for q in second]


def test_find_eigenvalues_empty_for_disk_missing_class():
    quads = find_eigenvalues(STABLE, search_box=(0.05, 3.0, 0.05, 3.0), grid=10, tol=1e-12)
    assert quads == []


def test_find_eigenvalues_gamma_invariant():
    doubled = CFParams.for_class(V(1, 0), V(1, 1), 2.0)
    q1 = find_eigenvalues(GOLDEN, search_box=(0.05, 1.0, 0.05, 1.0), grid=8)
    q2 = find_eigenvalues(doubled, search_box=(0.05, 1.0, 0.05, 1.0), grid=8)
    assert len(q1) == len(q2) == 1
    assert q1[0].lambda_tilde == pytest.approx(q2[0].lambda_tilde, abs=1e-12)


def test_band_distance():
    half = GOLDEN.band_halfwidth_tilde()
    assert band_distance(0.3 + 0.2j, half) == pytest.approx(0.3)
    assert band_distance(1.5j, half) == pytest.approx(0.5)
    assert band_distance(0.1 + 1.0j, half) == pytest.approx(0.1)


def test_eigenvector_recurrence_and_decay():
    z = eigenvector_window(GOLDEN, POLISHED_ROOT, -40, 40)
    ns = np.arange(-40, 41)
    lam = GOLDEN.a * POLISHED_ROOT
    res = []
    for j, n in enumerate(ns):
        if j == 0 or j == len(ns) - 1:
            continue
        an = a_n(GOLDEN, lam, int(n))
        res.append(abs(an * z[j] + z[j - 1] - z[j + 1]))
    assert max(res) < 1e-10
    assert abs(z[0]) < 1e-3 * abs(z[40])  # decays toward n -> -infinity
    assert abs(z[-1]) < 1e-3 * abs(z[40])  # and toward n -> +infinity


def test_mode_amplitudes_give_chain_eigenmode():
    # the reconstructed amplitudes satisfy d/dt w = lambda w slot by slot;
    # lambda_tilde does not depend on Gamma, and the phase of Gamma enters
    # the amplitudes through params.gamma
    for gamma in (1.0, 0.6 - 1.3j):
        params = CFParams.for_class(V(1, 0), V(1, 1), gamma)
        spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=gamma, n_min=-50, n_max=50)
        w = mode_amplitudes(params, POLISHED_ROOT, spec.n_min, spec.n_max)
        lam = params.a * POLISHED_ROOT
        d = cle_rhs(spec, ComplexSeq(spec.n_min, w)).values
        interior = slice(1, -1)
        err = np.abs(d[interior] - lam * w[interior])
        assert np.max(err) < 1e-9 * np.max(np.abs(w))


@pytest.mark.parametrize("p, c", [(V(1, 1), V(-1, 1)), (V(2, 1), V(2, -1))])
def test_full_chain_solvers_refuse_every_member_of_a_circle_class(p, c):
    # the chain of a class with a member c on |k| = |p| splits at c whatever
    # member it is counted from, so no answer may depend on how far a
    # recurrence happens to run before it reaches c
    lt = 0.4 + 0.6j
    box = dict(search_box=(0.05, 2.0, 0.05, 2.0), grid=2)
    for n in (0, 3, -3, 100, -100, 300, -300):
        params = CFParams.for_class(c.plus(n, p), p, 1.0)
        assert params.circle == c
        for solve in (
            lambda: find_eigenvalues(params, **box),
            lambda: f_eigen(params, lt),
            lambda: mode_amplitudes(params, lt, -5, 5),
            lambda: detM_eigentest(params, -1j * lt),
        ):
            with pytest.raises(UsageError, match="the chain splits"):
                solve()
        # the half-chains are counted from c, whichever member params holds
        halves = [find_eigenvalues_half(params, side, **box) for side in (+1, -1)]
        if n == 0:
            at_circle = halves
        assert halves == at_circle


@pytest.mark.parametrize(
    "p, khat, n",
    [
        (V(3, 1), V(0, -1), 3),
        (V(2, 1), V(-1, 0), 3),
        (V(2, 1), V(0, 1), -3),
        (V(3, 1), V(1, 0), 3),
        (V(3, 1), V(1, 0), -3),
    ],
)
def test_search_answers_do_not_depend_on_the_member(p, khat, n):
    # the roots belong to the class: searched from a far member the search
    # reports exactly what it reports from the canonical member
    box = dict(search_box=(0.05, 2.0, 0.05, 2.0), grid=8)
    canonical = find_eigenvalues(CFParams.for_class(canonical_label(khat, p).khat, p, 1.0), **box)
    assert canonical
    assert find_eigenvalues(CFParams.for_class(khat.plus(n, p), p, 1.0), **box) == canonical


@pytest.mark.parametrize("tol", [0.03, 1e-4, 1e-17])
def test_searches_refuse_a_tolerance_past_the_band_tube(tol):
    # 10 tol is the axis-snap and duplicate radius; it must stay inside
    # BAND_TUBE, or a root can be snapped onto the band and dropped.  Below
    # ROOT_TOL_FLOOR the rounding error of f can miss a root: at 3e-17 the
    # golden search returned []
    box = dict(search_box=(0.05, 1.0, 0.05, 1.0), grid=4)
    with pytest.raises(UsageError, match="0.0001"):
        find_eigenvalues(GOLDEN, tol=tol, **box)
    for side in (+1, -1):
        with pytest.raises(UsageError, match="0.0001"):
            find_eigenvalues_half(CIRCLE, side, tol=tol, **box)
    assert len(find_eigenvalues(GOLDEN, tol=9e-5, **box)) == 1


def test_half_chain_solver_on_circle_class():
    circle = CFParams.for_class(V(-1, 1), V(1, 1), 1.0)
    # matching functions evaluate off the band...
    for side in (+1, -1):
        assert np.isfinite(_match(circle, np.array([0.4 + 0.6j]), side, 4096)[0]).all()
    # ...and find no roots: both half-chains are stable
    for side in (+1, -1):
        assert find_eigenvalues_half(circle, side, search_box=(0.05, 2.0, 0.05, 2.0), grid=6) == []
    with pytest.raises(UsageError, match="needs a class with a member on"):
        find_eigenvalues_half(GOLDEN, +1)


def test_parallel_class_rejected():
    # a = 0 for a parallel class or a zero gamma: no params, so no solver runs
    with pytest.raises(UsageError, match="parallel"):
        CFParams.for_class(V(2, 2), V(1, 1), 1.0)
    with pytest.raises(UsageError, match="gamma is zero"):
        CFParams.for_class(V(2, 2), V(1, 1), 0.0)


def test_kernel_derivative_matches_central_difference():
    pts = np.array([0.3 + 0.5j, 1.2 + 0.1j, 0.05 + 1.5j, -0.7 + 0.2j, 0.25 + 0.35j])
    h = 1e-5
    for params, side in ((GOLDEN, 0), (STABLE, 0), (CIRCLE, +1), (CIRCLE, -1)):
        _, df = _match(params, pts, side, 256)
        fd = (_match(params, pts + h, side, 256)[0] - _match(params, pts - h, side, 256)[0]) / (2 * h)
        assert np.all(np.abs(df - fd) < 1e-7 * np.abs(df)), (params.khat, side)


def test_deepen_gives_each_point_its_own_depth():
    # v(d) = 1 + r**d settles once r**d is below the tolerance; a NaN point
    # settles at once, and v(d) = d never settles and comes back NaN
    calls = {}

    def evaluate(idx, depths):
        out = []
        for depth in depths:
            calls[depth] = idx.tolist()
            v = np.array([1 + 0.5**depth, 1 + 0.99**depth, np.nan, depth], dtype=complex)[idx]
            out.append((v, np.full(len(idx), depth, dtype=complex)))
        return out

    depth, v, seen = _deepen(evaluate, 4, 1e-14)
    assert depth.tolist() == [128, 8192, 128, 1 << 18]
    assert seen[:2].tolist() == [128, 8192]
    assert v[0] == 1 + 0.5**128 and np.isnan(v[2]) and np.isnan(v[3])
    assert calls[256] == [1, 3]
    # a relative tolerance stops the slowly converging point early
    assert _deepen(evaluate, 2, 1e-14, 1e-2)[0].tolist() == [128, 1024]


def test_half_chain_default_box_finds_real_pair():
    quads = find_eigenvalues_half(CIRCLE, -1)
    assert len(quads) == 1
    q = quads[0]
    assert q.lambda_tilde == 0.04116495324160208
    assert len(q.members) == 2
    assert q.residual < 1e-12
    assert find_eigenvalues_half(CIRCLE, +1) == []


def test_find_eigenvalues_default_box_golden_literals():
    [q] = find_eigenvalues(GOLDEN)
    assert q.lambda_tilde == 0.24822301804110672 + 0.3517207645854475j
    assert q.residual == 1.2412670766236366e-16


# indices visited by _sweep in one default-box golden search when every seed
# ran at the one depth (16384) that converged a sample of 16 seeds
SINGLE_DEPTH_SWEEP_INDICES = 819102


def test_per_point_depth_sweeps_a_twentieth_of_the_single_depth_search(monkeypatch):
    visited, work = [], []
    sweep = contfrac._sweep

    def counting(params, lt, ns, start=None):
        # np.size counts both rows of a paired sweep (both tails at once)
        visited.append(np.size(ns))
        work.append(np.size(ns) * np.size(lt))
        return sweep(params, lt, ns, start)

    monkeypatch.setattr(contfrac, "_sweep", counting)
    assert len(find_eigenvalues(GOLDEN)) == 1
    assert sum(visited) <= SINGLE_DEPTH_SWEEP_INDICES / 20
    # points x indices: 1,673,579 when every finite iterate was evaluated
    # once more before the report took each root's residual
    assert sum(work) <= 1.55e6
    # the same work as when each tail ran in a sweep of its own
    assert (sum(visited), sum(work)) == (7847, 1479665)


def _meets_disk_or_circle(khat, p):
    # |khat + n p|^2 is minimal near n = -khat.p / |p|^2, well inside this range
    norms = [khat.plus(n, p).norm2 for n in range(-8, 9)]
    return min(norms) < p.norm2, p.norm2 in norms


@given(
    st.sampled_from([V(1, 1), V(2, 1), V(1, 0)]),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=8, deadline=None)
def test_cf_roots_are_dense_section_eigenvalues(p, k1, k2):
    khat = V(k1, k2)
    assume(det(p, khat) != 0)
    meets, circle = _meets_disk_or_circle(khat, p)
    assume(not circle)
    params = CFParams.for_class(khat, p, 1.0)
    quads = find_eigenvalues(params, search_box=(0.05, 2.0, 0.05, 2.0), grid=6)
    if not meets:
        assert quads == []
        return
    ev = truncated_spectrum(build("A", params, 400))
    for q in quads:
        for m in q.members:
            assert np.min(np.abs(ev - params.a * m)) < 1e-6 * abs(params.a)


@st.composite
def _pump_and_circle_member(draw):
    p = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda t: V(*t)))
    r = int(p.norm2**0.5)
    ring = [V(k1, k2) for k1 in range(-r, r + 1) for k2 in range(-r, r + 1) if k1 * k1 + k2 * k2 == p.norm2]
    # never empty: p rotated by 90 degrees is on the circle and not parallel
    return p, draw(st.sampled_from([k for k in ring if det(p, k) != 0]))


@given(_pump_and_circle_member())
@example((V(2, 1), V(2, -1)))
@example((V(3, 1), V(1, 3)))
@settings(max_examples=10, deadline=None)
def test_half_chain_roots_are_dense_section_eigenvalues(pump_and_member):
    # rho vanishes at a member on |k| = |p|, so the chain splits there into
    # the half-chains n >= 1 and n <= -1; each is a one-sided tridiagonal
    # i a P diag(rho), solved densely here as the oracle
    p, k = pump_and_member
    params = CFParams.for_class(k, p, 1.0)
    N = 300
    for side in (+1, -1):
        quads = find_eigenvalues_half(params, side, search_box=(0.05, 2.0, 0.05, 2.0), grid=6)
        section = 1j * params.a * (np.eye(N, k=1) + np.eye(N, k=-1)) * rho(k, p, side * np.arange(1, N + 1))
        ev = np.linalg.eigvals(section)
        for q in quads:
            for m in q.members:
                assert np.min(np.abs(ev - params.a * m)) < 1e-8


@given(
    st.sampled_from([V(1, 1), V(2, 1), V(1, 0), V(2, 2), V(3, 1)]),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=10, deadline=None)
def test_search_roots_hold_at_depth_16384(p, k1, k2):
    # every root is a root of the deeply truncated fraction, and the depth
    # the search settled at gives the same value as depth 1 << 14
    khat = V(k1, k2)
    assume(det(p, khat) != 0)
    member = circle_member(khat, p)
    box = dict(search_box=(0.05, 2.0, 0.05, 2.0), grid=8, tol=1e-12)
    if member is None:
        params = CFParams.for_class(khat, p, 1.0)
        runs = [(0, find_eigenvalues(params, **box))]
    else:
        params = CFParams.for_class(member, p, 1.0)
        runs = [(side, find_eigenvalues_half(params, side, **box)) for side in (+1, -1)]
    for side, quads in runs:
        for q in quads:
            rep = np.array([q.lambda_tilde])
            deep = _match(params, rep, side, 1 << 14)[0][0]
            assert abs(deep) < 1e-12
            # the search's own rule: dtol = min(tol / 100, 1e-13) = 1e-14
            depth, own, _ = _deepen(
                lambda idx, ds: _match(params, rep[idx], side, ds), 1, 1e-14, _DEPTH_REL_TOL
            )
            for value in (own[0], _match(params, rep, side, 2 * int(depth[0]))[0][0]):
                assert abs(value - deep) < 1e-13


@st.composite
def _class_inside_disk(draw):
    # a pump with |p_i| <= 3 and a non-circle class whose canonical member
    # lies inside the open disk |k| < |p|
    p = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda t: V(*t)))
    r = int(p.norm2**0.5)
    inside = {
        canonical_label(k, p).khat
        for k in (V(k1, k2) for k1 in range(-r, r + 1) for k2 in range(-r, r + 1))
        if 0 < k.norm2 < p.norm2 and det(p, k) != 0
    }
    classes = sorted(k for k in inside if circle_member(k, p) is None)
    assume(classes)
    return p, draw(st.sampled_from(classes))


@given(_class_inside_disk(), st.integers(-3, 3))
@example((V(3, 1), V(0, 1)), 3)  # two real pairs
@example((V(1, 1), V(1, 0)), -2)  # the golden quadruple
@example((V(3, 0), V(0, -1)), 3)  # the member (9,-1): det M counted from it had a pole 3e-4 from the root
@settings(max_examples=8, deadline=None)
def test_cf_roots_agree_with_det_m_and_the_dense_section(pump_and_class, n):
    # three independent methods: each continued-fraction root is a zero of
    # the det-M test and, with every member of its orbit, an eigenvalue of
    # the N = 400 section; the search and det-M count from the class's
    # minimal member, the section from the member params holds
    p, khat = pump_and_class
    params = CFParams.for_class(khat.plus(n, p), p, 1.0)
    quads = find_eigenvalues(params, search_box=(0.01, 2.0, 0.01, 2.0), grid=12)
    ev = truncated_spectrum(build("A", params, 400))
    for q in quads:
        lt = q.lambda_tilde
        assert abs(detM_eigentest(params, -1j * lt)) <= 1e-6 * abs(detM_eigentest(params, -1j * lt * (1 + 1e-3)))
        for m in q.members:
            assert np.min(np.abs(ev - params.a * m)) < 1e-6
        # check 2's three-way test: det-M, polished from an offset seed,
        # finds the root on its own
        lam_cf = params.a * lt
        lam_detm = 1j * params.a * _polish_detm_root(params, -1j * lt)
        nearest = ev[np.argmin(np.abs(ev - lam_cf))]
        assert max(abs(lam_cf - lam_detm), abs(lam_cf - nearest), abs(lam_detm - nearest)) < 1e-6


@st.composite
def _chain(draw):
    # a pump with |p_i| <= 3, a non-parallel class, and the chain searched:
    # side 0, the full chain, or side +1 or -1, a half-chain counted from the
    # circle member of a circle class
    p = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda t: V(*t)))
    k = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda t: V(*t)).filter(lambda k: det(p, k) != 0))
    c = circle_member(k, p)
    return (p, k, 0) if c is None else (p, c, draw(st.sampled_from([+1, -1])))


@given(_chain())
@example((V(3, 1), V(0, 1), 0))  # two real pairs
@example((V(1, 1), V(1, 0), 0))  # the golden quadruple
@example((V(1, 1), V(-1, 2), 0))  # kappa = 0
@settings(max_examples=10, deadline=None)
def test_search_finds_kappa_unstable_members_and_so_does_the_section(chain):
    # the theorem: at most kappa members with Re > 0; the oracle: the N=400
    # section has as many eigenvalues with Re > 1e-8 |b|, and for kappa = 0
    # none off the band at all
    p, k, side = chain
    params = CFParams.for_class(k, p, 1.0)
    box = dict(search_box=(0.01, 2.0, 0.01, 2.0), grid=12)
    N = 400
    if side == 0:
        quads = find_eigenvalues(params, **box)
        section = build("A", params, N)
        ev = truncated_spectrum(section)
    else:
        quads = find_eigenvalues_half(params, side, **box)
        entries = 1j * params.a * (np.eye(N, k=1) + np.eye(N, k=-1)) * rho(k, p, side * np.arange(1, N + 1))
        chain = params.a * rho(k, p, side * np.arange(1, N + 1))  # the half chain, from the circle member out
        section = TruncatedOperator(size=N, chain=chain, b=params.a * params.rho_inf)
        ev = np.linalg.eigvals(entries)
    found = sum(m.real > 0 for q in quads for m in q.members)
    assert found <= kappa(k, p, side)
    assert found == np.sum(ev.real > 1e-8 * abs(section.b))
    if kappa(k, p, side) == 0:
        assert not classify_band_distance(section, ev).any()


def test_kappa_zero_chains_are_answered_without_a_sweep(monkeypatch, capsys):
    # a chain with no member inside the disk gets [] before any recurrence
    # runs, and invalid arguments are still refused first
    def no_sweep(*args, **kwargs):
        raise AssertionError("_sweep ran")

    monkeypatch.setattr(contfrac, "_sweep", no_sweep)
    assert find_eigenvalues(CFParams.for_class(V(-1, 2), V(1, 1), 1.0)) == []
    # circle member (-2,1) of p = (2,1); its side -1 member (-4,0) misses the disk
    assert find_eigenvalues_half(CFParams.for_class(V(0, 2), V(2, 1), 1.0), -1) == []
    for bad in (("--grid", "0"), ("--box", "1,1,0.05,1")):
        assert cli.main(["eigs-cf", "--p=1,1", "--khat=-1,2", *bad]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ")


def test_grid_is_capped():
    # kappa = 0, so a grid at the cap is answered without a sweep
    params = CFParams.for_class(V(-1, 2), V(1, 1), 1.0)
    assert find_eigenvalues(params, grid=contfrac.GRID_CAP) == []
    with pytest.raises(UsageError, match="GRID_CAP = 256, got 257"):
        find_eigenvalues(params, grid=contfrac.GRID_CAP + 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_eigenvalues_half(CFParams.for_class(V(2, -1), V(2, 1), 1.0), side=0), UsageError, "side"),
        (lambda: eigenvector_window(GOLDEN, POLISHED_ROOT, 2, 6), UsageError, "indices 0 and 1"),
        # cut at 128 levels (_MAX_DEPTH = 64), a tail this near the band has not settled
        (lambda: f_eigen(GOLDEN, 0.01 + 0.3j), NumericalError, "did not converge"),
    ],
)
def test_contfrac_refusals(monkeypatch, call, error, message):
    monkeypatch.setattr(contfrac, "_MAX_DEPTH", 64)
    with pytest.raises(error, match=message):
        call()
