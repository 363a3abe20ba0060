import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euler_spectra import matrixop
from euler_spectra.contfrac import CFParams, find_eigenvalues
from euler_spectra.errors import NumericalError, UsageError
from euler_spectra.lattice import WaveVector, canonical_label, det, rho
from euler_spectra.matrixop import (
    CURVE_TOL,
    TruncatedOperator,
    _small_root,
    build,
    classify_band_distance,
    detM_eigentest,
    essential_band,
    green_kernel,
    pattern,
    relabel,
    resolvent_apply,
    truncated_spectrum,
    unrelabel,
)

V = WaveVector
GOLDEN = CFParams.for_class(V(1, 0), V(1, 1), 1.0)
STABLE = CFParams.for_class(V(2, -1), V(1, 1), 1.0)
POLISHED_ROOT = 0.24822301804110669 + 0.35172076458544754j


def pattern_matrix(N):
    # chain index n sits at matrix index relabel(n) and couples to n - 1 and n + 1
    P = np.zeros((N, N), dtype=complex)
    for m in range(1, N + 1):
        for nb in (unrelabel(m) - 1, unrelabel(m) + 1):
            if relabel(nb) <= N:
                P[m - 1, relabel(nb) - 1] = 1.0
    return P


def test_relabel_examples():
    assert relabel(1) == 2
    assert relabel(0) == 1
    assert relabel(-3) == 7


@given(st.integers(-500, 500))
@settings(max_examples=200)
def test_relabel_bijective(n):
    m = relabel(n)
    assert m >= 1
    assert unrelabel(m) == n


def test_relabel_maps_accept_arrays():
    m = np.arange(1, 300)
    assert np.array_equal(unrelabel(m), [unrelabel(int(x)) for x in m])
    assert np.array_equal(relabel(unrelabel(m)), m)
    with pytest.raises(UsageError, match="matrix indices start at 1"):
        unrelabel(np.array([3, 0, 5]))


def test_unrelabel_of_no_indices():
    assert unrelabel(np.array([], dtype=int)).size == 0


@pytest.mark.parametrize("N", [5, 6, 7, 40, 41])
@pytest.mark.parametrize("params", [GOLDEN, STABLE, CFParams.for_class(V(1, 0), V(2, 1), 0.6 - 1.3j)])
def test_build_is_i_a_pattern_times_diagonal(N, params):
    P = pattern_matrix(N)
    assert np.array_equal(pattern(N), P.real)
    chain = [unrelabel(m) for m in range(1, N + 1)]
    rho_cols = np.array([rho(params.khat, params.p, n) for n in chain])
    lim = params.rho_inf
    for kind, coeff in (("A", rho_cols), ("B", np.full(N, lim)), ("C", rho_cols - lim)):
        expected = 1j * params.a * (P @ np.diag(coeff))
        assert np.array_equal(build(kind, params, N).entries, expected)


def test_build_B_structure():
    op = build("B", GOLDEN, 40)
    ib = 1j * op.b
    assert op.b == pytest.approx(0.25, abs=1e-15)
    assert op.entries[0, 1] == ib and op.entries[0, 2] == ib
    herm = op.entries / 1j
    assert np.allclose(herm, herm.conj().T, atol=1e-15)
    # every nonzero entry equals ib exactly
    nz = op.entries[op.entries != 0]
    assert np.all(nz == ib)


def test_build_A_entries_and_band():
    op = build("A", GOLDEN, 40)
    assert op.entries[0, 1] == pytest.approx(0.15j, abs=1e-15)
    # (2x2+1)-banded: nothing beyond the second off-diagonal
    for m in range(40):
        for c in range(40):
            if abs(m - c) > 2:
                assert op.entries[m, c] == 0.0


def test_build_C_is_difference_and_decays():
    N = 200
    a_op = build("A", GOLDEN, N)
    b_op = build("B", GOLDEN, N)
    c_op = build("C", GOLDEN, N)
    assert np.allclose(c_op.entries, a_op.entries - b_op.entries, atol=1e-16)
    row_max = lambda r: np.max(np.abs(c_op.entries[r:, :])) if r < N else 0.0
    maxima = [row_max(r) for r in (10, 40, 120)]
    assert maxima[0] > maxima[1] > maxima[2] > 0.0


def test_build_rejects_bad_input():
    with pytest.raises(UsageError, match="kind must be 'A', 'B' or 'C'"):
        build("X", GOLDEN, 20)
    with pytest.raises(UsageError, match="N >= 5 required"):
        build("A", GOLDEN, 4)


def test_spectrum_of_B_is_imaginary_band():
    op = build("B", GOLDEN, 240)
    ev = truncated_spectrum(op)
    assert np.max(np.abs(ev.real)) < 1e-8
    assert np.max(np.abs(ev.imag)) <= 2 * abs(op.b) + 1e-12


def test_spectrum_of_A_contains_golden_quadruple():
    op = build("A", GOLDEN, 220)
    ev = truncated_spectrum(op)
    a = GOLDEN.a
    for lt in (POLISHED_ROOT, -POLISHED_ROOT, np.conj(POLISHED_ROOT), -np.conj(POLISHED_ROOT)):
        assert np.min(np.abs(ev - a * lt)) < 1e-6


def test_spectrum_of_stable_class_hugs_band():
    # uniform-sign rho makes the section similar to a symmetric matrix, so
    # the eigenvalues land on the axis exactly; allow the rounding floor
    dists = []
    for N in (120, 240):
        op = build("A", STABLE, N)
        ev = truncated_spectrum(op)
        b = abs(op.b)
        im = np.clip(ev.imag, -2 * b, 2 * b)
        dists.append(np.max(np.abs(ev - 1j * im)))
    assert dists[0] < 1e-2
    assert dists[1] <= max(dists[0], 1e-12)


def test_spectrum_residuals_spot_check():
    op = build("A", GOLDEN, 120)
    vals, vecs = np.linalg.eig(op.entries)
    scale = np.linalg.norm(op.entries, ord=2)
    for j in range(0, 120, 17):
        r = np.linalg.norm(op.entries @ vecs[:, j] - vals[j] * vecs[:, j])
        assert r / scale < 1e-8


@pytest.mark.parametrize(
    "params",
    [
        GOLDEN,
        CFParams.for_class(V(0, 1), V(1, 1), 1.0),
        CFParams.for_class(V(1, 0), V(2, 1), 1.0),
        CFParams.for_class(V(0, 1), V(1, 0), 1.0),
        STABLE,
    ],
)
def test_spectrum_set_symmetry(params):
    ev = truncated_spectrum(build("A", params, 160))
    for lam in ev[:: 8]:
        assert np.min(np.abs(ev + lam)) < 1e-8
        assert np.min(np.abs(ev - np.conj(lam))) < 1e-8


def test_finite_section_convergence_of_isolated_eigenvalue():
    vals = []
    for N in (200, 400):
        ev = truncated_spectrum(build("A", GOLDEN, N))
        vals.append(ev[np.argmin(np.abs(ev - GOLDEN.a * POLISHED_ROOT))])
    assert abs(vals[0] - vals[1]) < 1e-6


@given(st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_small_root_solves_its_quadratic_inside_the_circle(lam):
    assume(abs(lam.imag) > 1e-6 or abs(lam.real) > 2.0 + 1e-6)
    w, w_minus_inv = _small_root(lam)
    assert abs(w) < 1.0
    assert abs(w + 1.0 / w - lam) < 1e-12 * max(1.0, abs(lam))
    assert abs(w - 1.0 / w - w_minus_inv) < 1e-9 * abs(w_minus_inv)


def test_small_root_on_and_off_curve():
    # every root has modulus 1 on the spectral curve [-2, 2], whose
    # boundary points are the point set; off it one root lies inside the
    # unit circle
    for lam in (0.0, 1.3):
        with pytest.raises(NumericalError, match="lies on the spectral curve"):
            _small_root(lam)
    for lam in (2.0, -2.0):
        with pytest.raises(NumericalError, match="boundary point of the curve"):
            _small_root(lam)
    for lam in (3.0, 5.0j, -2.5 + 0.3j):
        assert abs(_small_root(lam)[0]) < 1.0 - CURVE_TOL
    assert _small_root(2.5)[0] == pytest.approx(0.5, abs=1e-15)


def test_essential_band_values():
    band = essential_band(GOLDEN)
    assert band.width == pytest.approx(1.0, abs=1e-15)
    assert sorted(e.imag for e in band.endpoints) == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert all(e.real == 0.0 for e in band.endpoints)

    doubled = essential_band(CFParams.for_class(V(1, 0), V(1, 1), 2.0))
    assert doubled.width == pytest.approx(2.0, abs=1e-15)

    with pytest.raises(UsageError, match="parallel"):  # a parallel class has a = 0 and no band
        CFParams.for_class(V(2, 2), V(1, 1), 1.0)


def _pattern_residual(lam, y, z):
    B = pattern_matrix(len(z) + 2)
    zfull = np.concatenate([z, np.zeros(2, dtype=complex)])
    yfull = np.concatenate([y, np.zeros(len(z) + 2 - len(y), dtype=complex)])
    return np.max(np.abs((B @ zfull - lam * zfull - yfull)[: len(z)]))


def test_resolvent_zero_input():
    z = resolvent_apply(3.0, np.zeros(6))
    assert np.all(z == 0)


def test_resolvent_of_no_input():
    z = resolvent_apply(3.0, [])
    assert z.shape == (77,) and np.all(z == 0)


def test_resolvent_unit_mass_residual_and_decay():
    y = np.zeros(4, dtype=complex)
    y[0] = 1.0
    z = resolvent_apply(3.0, y)
    assert _pattern_residual(3.0, y, z) < 1e-9
    w_small, _ = _small_root(3.0)
    # the solution interleaves the two half-chains, so the decay per chain
    # index shows over matrix index strides of 2
    tail = np.abs(z[10:20])
    ratios = tail[2:] / tail[:-2]
    assert np.allclose(ratios, abs(w_small), atol=1e-6)


def test_resolvent_matches_dense_solve():
    rng = np.random.default_rng(1)
    for lam in (3.0, 3.0 + 1.0j, 0.5 - 4.0j, 2.0001, 0.1 + 0.01j):
        y = np.zeros(10, dtype=complex)
        y[:7] = rng.normal(size=7) + 1j * rng.normal(size=7)
        z = resolvent_apply(lam, y)
        assert np.max(np.abs(green_kernel(lam, len(z), len(y)) @ y - z)) < 1e-14 * np.max(np.abs(z))
        if len(z) > 500:  # next to the curve the kernel product stands for an O(N^3) solve
            continue
        N = len(z) + 40
        B = pattern_matrix(N)
        dense = np.linalg.solve(B - lam * np.eye(N), np.concatenate([y, np.zeros(N - len(y))]))
        assert np.max(np.abs(dense[: len(z)] - z)) < 1e-9


def test_resolvent_linearity():
    rng = np.random.default_rng(2)
    y1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    y2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    alpha = 0.7 - 0.3j
    lam = 3.0 + 1.0j
    z = resolvent_apply(lam, alpha * y1 + y2)
    z1 = resolvent_apply(lam, y1)
    z2 = resolvent_apply(lam, y2)
    assert np.max(np.abs(z - (alpha * z1 + z2))) < 1e-10 * max(1.0, np.max(np.abs(z)))


def test_resolvent_row_sum_bound_finite():
    G = green_kernel(3.0, 60, 80)
    K = np.max(np.sum(np.abs(G), axis=1))
    assert np.isfinite(K)
    assert K < 10.0


@pytest.mark.parametrize("lam", [3.0, 3.0 + 1.0j, 0.5 - 4.0j, -2.5 + 0.3j])
def test_green_kernel_inverts_the_section(lam):
    # columns of G solve (P - lam I) G = I on the one-sided section; a
    # dense inverse of a much larger section agrees up to truncation
    N = 240
    dense = np.linalg.inv(pattern_matrix(N) - lam * np.eye(N))
    G = green_kernel(lam, 60, 80)
    assert np.max(np.abs(G - dense[:60, :80])) < 1e-12 * np.max(np.abs(G))


@pytest.mark.parametrize("lam", [2.0001, -2.0001, 2 + 1e-4j])
def test_green_kernel_next_to_the_band_ends(lam):
    # against the same kernel w^|n - n'| / (w - 1/w) at 40 digits; the
    # discriminant lam^2 - 4 would cancel here
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = mp.sqrt((mp.mpc(lam) - 2) * (mp.mpc(lam) + 2))
        w = (lam - s) / 2 if abs(lam - s) < 2 else (lam + s) / 2
        n = unrelabel(np.arange(1, 41))
        d = np.abs(n[:, None] - n)
        exact = np.array([complex(w**k / (w - 1 / w)) for k in range(d.max() + 1)])[d]
    G = green_kernel(lam, 40, 40)
    assert np.max(np.abs(G - exact)) < 2e-14 * np.max(np.abs(exact))


def test_resolvent_errors_on_curve_and_point_set():
    with pytest.raises(NumericalError, match="lies on the spectral curve"):
        resolvent_apply(1.5, np.ones(3))
    with pytest.raises(NumericalError, match="boundary point of the curve"):
        resolvent_apply(2.0, np.ones(3))
    with pytest.raises(NumericalError, match="boundary point of the curve"):
        resolvent_apply(-2.0, np.ones(3))


def test_detM_zero_at_golden_root():
    lam_hat = -1j * POLISHED_ROOT
    assert abs(detM_eigentest(GOLDEN, lam_hat)) < 1e-8


def test_detM_bounded_away_for_stable_class():
    vals = []
    for re in np.linspace(-2.0, 2.0, 7):
        for im in np.linspace(-2.0, 2.0, 7):
            if abs(im) < 0.15 and abs(re) <= 1.1:
                continue  # skip the band neighborhood
            vals.append(abs(detM_eigentest(STABLE, complex(re, im))))
    assert min(vals) > 1e-2


def test_detM_root_agrees_with_continued_fraction():
    # Newton on det M from a deliberately offset seed converges back to
    # the continued-fraction eigenvalue
    target = -1j * POLISHED_ROOT
    z = target + 1e-3 * (1 + 1j)
    for _ in range(40):
        h = 1e-7 * (1 + abs(z))
        d = (detM_eigentest(GOLDEN, z + h) - detM_eigentest(GOLDEN, z - h)) / (2 * h)
        step = detM_eigentest(GOLDEN, z) / d
        z -= step
        if abs(step) < 1e-14:
            break
    assert abs(z - target) < 1e-8


def _detm_linear_recurrence(params, lam_hat, mp):
    # det M the long way, at mpmath's working precision: the minimal solution
    # y_n of each half-chain by the linear backward recurrence of the rows
    # lam_hat y_n = rho_{n-1} y_{n-1} + rho_{n+1} y_{n+1}, seeded (1, r) at
    # the tail, then the 2 x 2 coupling matrix of rows 0 and 1 with its
    # columns divided by y_1 and y_0
    khat, p = params.khat, params.p
    lam = mp.mpc(lam_hat)

    def rho_n(n):
        return 1 / mp.mpf((khat.k1 + n * p.k1) ** 2 + (khat.k2 + n * p.k2) ** 2) - 1 / mp.mpf(p.norm2)

    lam_b = lam * -p.norm2
    s = mp.sqrt((lam_b - 2) * (lam_b + 2))
    r = 2 / (lam_b + s) if abs(lam_b + s) >= 2 else 2 / (lam_b - s)
    n_tail = max(64, int(np.ceil(np.log(1e-14) / np.log(max(float(abs(r)), 1e-12)))) + 16)
    y = {n_tail + 1: r, n_tail: mp.mpf(1), -n_tail - 1: r, -n_tail: mp.mpf(1)}
    for n in range(n_tail, 1, -1):
        y[n - 1] = (lam * y[n] - rho_n(n + 1) * y[n + 1]) / rho_n(n - 1)
    for n in range(-n_tail, 0):
        y[n + 1] = (lam * y[n] - rho_n(n - 1) * y[n - 1]) / rho_n(n + 1)
    M = mp.matrix(
        [
            [rho_n(1) * y[1] / y[1], (rho_n(-1) * y[-1] - lam * y[0]) / y[0]],
            [(rho_n(2) * y[2] - lam * y[1]) / y[1], rho_n(0) * y[0] / y[0]],
        ]
    )
    return complex(mp.det(M))


@pytest.mark.parametrize(
    "p, khat",
    [((1, 1), (1, 0)), ((2, 1), (0, 1)), ((3, 1), (1, 0)), ((3, -3), (0, 1)), ((1, 0), (0, 2)), ((3, 2), (1, 0))],
)
@pytest.mark.parametrize("lam_hat", [0.3 + 0.7j, -1.2 + 0.4j, 2.5 - 1.0j, 0.05 - 0.9j])
def test_detM_matches_the_linear_recurrence_at_40_digits(p, khat, lam_hat):
    mp = pytest.importorskip("mpmath")
    params = CFParams.for_class(V(*khat), V(*p), 1.0)
    assert params.minimal() is params
    with mp.workdps(40):
        exact = _detm_linear_recurrence(params, lam_hat, mp)
    assert abs(detM_eigentest(params, lam_hat) - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize(
    "p, khat",
    [((3, 0), (0, -1)), ((1, 1), (1, 0)), ((2, 1), (0, 1)), ((3, 2), (0, 1))],
)
@pytest.mark.parametrize("n", [3, -3])
def test_detM_is_counted_from_the_minimal_member(p, khat, n):
    # det M from a far member is det M from the minimal member, bit for bit:
    # counted from (9,-1), p = (3,0), it would carry a pole 3e-4 from the
    # root at lambda_tilde = 0.138
    minimal = CFParams.for_class(V(*khat), V(*p), 1.0)
    far = CFParams.for_class(V(*khat).plus(n, V(*p)), V(*p), 1.0)
    for lam_hat in (-0.138j, 0.3 + 0.7j, -1.2 + 0.4j):
        assert detM_eigentest(far, lam_hat) == detM_eigentest(minimal, lam_hat)


def test_detM_refuses_a_zero_sweep_denominator(monkeypatch):
    # lambda_b = 2.5 has the exact decay ratio r = 1/2; with every rho set
    # to lambda_hat / r, the first denominator lambda_hat - rho r is 0
    lam_hat = 2.5 * GOLDEN.rho_inf
    assert _small_root(2.5)[0] == 0.5
    with monkeypatch.context() as patch:
        patch.setattr(matrixop, "rho", lambda khat, p, n: np.full(len(n), lam_hat / 0.5))
        with pytest.raises(NumericalError):
            detM_eigentest(GOLDEN, lam_hat)
    # a seed r = 2 makes the upper sweep's first denominator
    # lambda_hat - rho_{n_tail+1} r exactly 0 at lambda_hat = 2 rho_65
    # (n_tail = 64 for |r| >= 1)
    monkeypatch.setattr(matrixop, "_small_root", lambda lam_b: (2.0 + 0j, 0j))
    with pytest.raises(NumericalError):
        detM_eigentest(GOLDEN, complex(2.0 * rho(GOLDEN.khat, GOLDEN.p, 65)))


def test_detM_shares_no_code_with_the_continued_fraction_kernel():
    # det M is the independent oracle of the continued-fraction roots
    tree = ast.parse(inspect.getsource(matrixop))
    from_contfrac = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "contfrac"
        for alias in node.names
    }
    assert from_contfrac == {"CFParams", "band_distance"}
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(ast.parse(inspect.getsource(detM_eigentest)))
    }
    assert not names & {"_sweep", "_w_plus", "rho_seq", "contfrac"}


def test_isolated_band_classification():
    op = build("A", GOLDEN, 260)
    ev = truncated_spectrum(op)
    mask = classify_band_distance(op, ev)
    assert int(mask.sum()) == 4
    stable_op = build("A", STABLE, 260)
    ev_s = truncated_spectrum(stable_op)
    assert int(classify_band_distance(stable_op, ev_s).sum()) == 0


@pytest.mark.parametrize(
    "p, khat, N, expected",
    [
        # classes that miss the disk: their band eigenvalues are imaginary up
        # to rounding, which the classifier must not count as isolated
        ((1, 0), (0, 3), 260, 0),
        ((1, 1), (-1, 2), 260, 0),
        # the golden class: one quadruple at every section size
        ((1, 1), (1, 0), 200, 4),
        ((1, 1), (1, 0), 260, 4),
        ((1, 1), (1, 0), 400, 4),
        ((1, 1), (1, 0), 800, 4),
    ],
)
def test_isolated_count_ignores_rounding_noise(p, khat, N, expected):
    op = build("A", CFParams.for_class(V(*khat), V(*p), 1.0), N)
    ev = truncated_spectrum(op)
    assert int(classify_band_distance(op, ev).sum()) == expected


def test_circle_class_spectrum_purely_imaginary():
    # minimal member on |k| = |p| with both half-chains stable: every
    # truncated eigenvalue is imaginary or zero, no quadruples off-axis
    circle = CFParams.for_class(V(-1, 1), V(1, 1), 1.0)
    ev = truncated_spectrum(build("A", circle, 200))
    assert np.max(np.abs(ev.real)) < 1e-8


def test_oracle_equivalence_both_directions():
    # every continued-fraction quadruple member appears in the truncated
    # spectrum, and every isolated truncated eigenvalue is a quadruple
    # member: the two methods name the same point spectrum
    quads = find_eigenvalues(GOLDEN, search_box=(0.05, 1.0, 0.05, 1.0), grid=8, tol=1e-12)
    members = [GOLDEN.a * m for q in quads for m in q.members]
    op = build("A", GOLDEN, 300)
    ev = truncated_spectrum(op)
    for lam in members:
        assert np.min(np.abs(ev - lam)) < 1e-6
    isolated = ev[classify_band_distance(op, ev)]
    assert len(isolated) == len(members)
    for lam in isolated:
        assert min(abs(lam - m) for m in members) < 1e-6


def _sweep_classes():
    """Every non-parallel class with |khat_i| <= 3 of pumps (1,1), (2,1),
    (1,0), each once, by its canonical khat."""
    found = set()
    for p in ((1, 1), (2, 1), (1, 0)):
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                if det(V(*p), V(k1, k2)) != 0:
                    found.add((p, canonical_label(V(k1, k2), V(*p)).khat.as_tuple()))
    return sorted(found)


def _assert_same_spectrum_as_complex_eigvals(op):
    # the real-arithmetic solver against complex LAPACK on the entries:
    # each eigenvalue of one lies within 1e-12 |b| of one of the other, and
    # the isolated/band split counts the same
    ev = truncated_spectrum(op)
    ref = np.linalg.eigvals(op.entries)
    gap = np.abs(ev[:, None] - ref[None, :])
    tol = 1e-12 * abs(op.b)
    assert np.max(gap.min(axis=1)) < tol and np.max(gap.min(axis=0)) < tol
    assert int(classify_band_distance(op, ev).sum()) == int(classify_band_distance(op, ref).sum())


@pytest.mark.parametrize("p, khat", _sweep_classes())
def test_truncated_spectrum_matches_complex_eigvals(p, khat):
    _assert_same_spectrum_as_complex_eigvals(build("A", CFParams.for_class(V(*khat), V(*p), 1.0), 160))


@pytest.mark.parametrize(
    "kind, p, khat",
    [("B", (1, 1), (1, 0)), ("C", (1, 1), (1, 0)), ("A", (1, 1), (-1, 1))],  # last: member on |k| = |p|
)
def test_truncated_spectrum_matches_complex_eigvals_other_sections(kind, p, khat):
    _assert_same_spectrum_as_complex_eigvals(build(kind, CFParams.for_class(V(*khat), V(*p), 1.0), 160))


@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(5, 160),
)
@settings(max_examples=20, deadline=None)
def test_truncated_spectrum_matches_complex_eigvals_random_classes(p, khat, N):
    assume(det(V(*p), V(*khat)) != 0)
    _assert_same_spectrum_as_complex_eigvals(build("A", CFParams.for_class(V(*khat), V(*p), 1.0), N))


def test_uniform_sign_sections_are_exactly_imaginary():
    # B and a class that misses the disk take the singular-value path, so
    # their spectra carry no real part at all; the golden class does not
    for op in (build("B", GOLDEN, 161), build("A", STABLE, 160)):
        assert np.all(truncated_spectrum(op).real == 0.0)
    assert np.max(np.abs(truncated_spectrum(build("A", GOLDEN, 160)).real)) > 0.1


def _odd_block_count(params, N):
    # the section's chain cut between neighbours whose rho product is 0
    r = rho(params.khat, params.p, np.sort(unrelabel(np.arange(1, N + 1))))
    cuts = np.flatnonzero(r[:-1] * r[1:] == 0.0) + 1
    return int(np.sum(np.diff(np.concatenate(([0], cuts, [N]))) % 2))


@pytest.mark.parametrize(
    "p, khat, N",
    [
        ((2, 1), (2, 3), 200),
        ((2, 1), (3, 0), 400),
        ((1, 1), (1, 0), 161),
        ((1, 1), (2, 0), 400),
        ((2, 1), (1, -1), 200),
    ],
)
def test_zero_products_split_the_section(p, khat, N):
    # circle classes solved unsplit leave a rounding-level mu whose square
    # root lands near sqrt(eps)|b|, off the axis or counted isolated (the
    # last two cases do so with this solver); each odd block, of a circle
    # class or of the golden class at odd N, owns one exact zero
    params = CFParams.for_class(V(*khat), V(*p), 1.0)
    op = build("A", params, N)
    ev = truncated_spectrum(op)
    isolated = classify_band_distance(op, ev)
    assert np.all(ev[~isolated].real == 0.0)
    assert isolated.sum() == classify_band_distance(op, np.linalg.eigvals(op.entries)).sum()
    assert np.sum(ev == 0.0) == _odd_block_count(params, N) >= 1


@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(5, 160),
    st.sampled_from("ABC"),
)
@settings(max_examples=30, deadline=None)
def test_truncated_spectrum_is_closed_under_negation_and_conjugation(p, khat, N, kind):
    # +-sqrt(mu) over conjugate-closed mu: the symmetry holds bit for bit
    assume(det(V(*p), V(*khat)) != 0)
    ev = truncated_spectrum(build(kind, CFParams.for_class(V(*khat), V(*p), 1.0), N))
    for image in (-ev, np.conj(ev)):
        assert np.array_equal(image[np.lexsort((image.real, image.imag))], ev)


@pytest.mark.parametrize("N", [5, 60, 61, 400])
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_lapack_sees_at_most_half_the_section(monkeypatch, kind, N):
    # the cost guard, without timing: every matrix a LAPACK routine gets is
    # of order N // 2 at most (golden A takes eigvals, B and C the svd)
    orders = []
    for name in ("eigvals", "svd", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def record(a, *args, _solver=solver, **kwargs):
            orders.append(max(np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    ev = truncated_spectrum(build(kind, GOLDEN, N))
    assert len(ev) == N
    assert orders and max(orders) <= N // 2


@pytest.mark.parametrize("gamma", [1e-300, 1e-200, 1e-160, 1e-100, 1e100, 1e160, 1e200, 1e300])
def test_section_spectrum_does_not_depend_on_gammas_magnitude(gamma):
    # the chain is solved at an exact power-of-two scale, so lam / a is the
    # same at every |gamma|; unscaled, the neighbour products go subnormal
    # or zero for small |gamma| and overflow for large |gamma|
    def in_units_of_a(g):
        params = CFParams.for_class(V(1, 0), V(1, 1), g)
        op = build("A", params, 40)
        ev = truncated_spectrum(op)
        return ev / params.a, int(classify_band_distance(op, ev).sum())

    ref, ref_isolated = in_units_of_a(1.0)
    ev, isolated = in_units_of_a(gamma)
    assert isolated == ref_isolated == 4
    assert np.max(np.abs(ev - ref)) < 1e-14


@pytest.mark.parametrize(
    "kind, params",
    [("A", GOLDEN), ("B", GOLDEN), ("C", GOLDEN), ("A", CFParams.for_class(V(-1, 1), V(2, 1), 1.0))],
)
def test_the_solver_never_forms_the_dense_section(monkeypatch, kind, params):
    # the section is its chain coefficients; the relabeled N x N matrix is
    # for tests and reports only (the last class has a member on the circle)
    def dense(self):
        raise AssertionError("TruncatedOperator.entries was read")

    monkeypatch.setattr(TruncatedOperator, "entries", property(dense))
    op = build(kind, params, 200)
    ev = truncated_spectrum(op)
    assert len(ev) == 200 and classify_band_distance(op, ev).shape == (200,)


def test_build_allocates_order_N():
    # the largest section DENSE_CAP allows, held as 2048 coefficients
    tracemalloc.start()
    try:
        build("A", GOLDEN, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _no_allocation(*args, **kwargs):
    raise AssertionError("called past the tail cap")


def test_resolvent_refuses_a_point_past_the_tail_cap(monkeypatch):
    # at lambda_b = 2 + 1e-10, 1 - |w| = 1e-5, so the tail needs about
    # 7.4e6 rows: refused before the row indices are built
    monkeypatch.setattr(matrixop, "unrelabel", _no_allocation)
    with pytest.raises(NumericalError, match=r"lambda_b = \(2\.0000000001\+0j\).* needs \d{7} rows"):
        resolvent_apply(2 + 1e-10, np.ones(3))


def test_resolvent_builds_no_kernel():
    # support 2000 at lambda_b = 3 has n_out = 2077 rows: a dense
    # n_out x len(y) kernel would hold 66 MB
    y = np.ones(2000, dtype=complex)
    tracemalloc.start()
    try:
        z = resolvent_apply(3.0, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(z) == 2077
    assert peak < 5 << 20


def test_detM_refuses_a_point_past_the_tail_cap(monkeypatch):
    # lambda_hat = -1 - 5e-11 is lambda_b = 2 + 1e-10 on the golden class:
    # n_tail is about 3.2e6, refused before the rho array is allocated
    monkeypatch.setattr(matrixop, "rho", _no_allocation)
    with pytest.raises(NumericalError, match=r"lambda_hat = -1\.00000000005.* needs \d{7} tail rows"):
        detM_eigentest(GOLDEN, -1 - 5e-11)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: truncated_spectrum(TruncatedOperator(2049, np.ones(2049), 1.0)), UsageError, "capped at N = 2048"),
        # |w| = 1 - 7.5e-13 clears the curve test but not the unit-circle one
        (lambda: _small_root(1.5e-12j), NumericalError, "no root inside the unit circle"),
        (lambda: resolvent_apply(3.0, np.ones((2, 2))), UsageError, "one-dimensional"),
    ],
)
def test_matrixop_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
