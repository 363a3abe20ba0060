import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euler_spectra.contfrac import CFParams, find_eigenvalues
from euler_spectra.errors import (
    DomainError,
    OnSpectralCurveError,
    SpectralPointSetError,
)
from euler_spectra.lattice import WaveVector, canonical_label, det, rho
from euler_spectra.matrixop import (
    CURVE_TOL,
    build,
    char_roots,
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
    with pytest.raises(DomainError):
        unrelabel(np.array([3, 0, 5]))


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
    with pytest.raises(DomainError):
        build("X", GOLDEN, 20)
    with pytest.raises(DomainError):
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


def test_char_roots_frozen_values():
    assert sorted(char_roots(2.0), key=lambda z: (z.real, z.imag)) == pytest.approx(
        [-1, -1, 1, 1], abs=1e-12
    )
    roots_m2 = char_roots(-2.0)
    assert sorted(np.imag(roots_m2)) == pytest.approx([-1, -1, 1, 1], abs=1e-12)
    assert np.max(np.abs(np.real(roots_m2))) < 1e-12
    r25 = sorted(np.abs(char_roots(2.5)))
    assert r25 == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2), np.sqrt(2), np.sqrt(2)], abs=1e-12)


@given(st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_char_roots_product_and_closure(lam):
    roots = char_roots(lam)
    prod = roots[0] * roots[1] * roots[2] * roots[3]
    assert abs(prod - 1.0) < 1e-9
    rset = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for w in roots:
        if abs(w) < 1e-12:
            continue
        for image in (-w, 1.0 / w):
            assert min(abs(image - u) for u in rset) < 1e-6 * max(1.0, abs(image))


def test_root_count_on_and_off_curve():
    # all four moduli are 1 on the spectral curve [-2, 2] (boundary points
    # included); off it two roots lie inside the unit circle
    for lam, inside in ((0.0, 0), (1.3, 0), (2.0, 0), (-2.0, 0), (3.0, 2), (5.0j, 2), (-2.5 + 0.3j, 2)):
        assert sum(abs(w) < 1.0 - CURVE_TOL for w in char_roots(lam)) == inside


def test_essential_band_values():
    band = essential_band(GOLDEN)
    assert band.width == pytest.approx(1.0, abs=1e-15)
    assert sorted(e.imag for e in band.endpoints) == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert all(e.real == 0.0 for e in band.endpoints)

    doubled = essential_band(CFParams.for_class(V(1, 0), V(1, 1), 2.0))
    assert doubled.width == pytest.approx(2.0, abs=1e-15)

    with pytest.raises(DomainError):  # a parallel class has a = 0 and no band
        CFParams.for_class(V(2, 2), V(1, 1), 1.0)


def _pattern_residual(lam, y, z):
    B = pattern_matrix(len(z) + 2)
    zfull = np.concatenate([z, np.zeros(2, dtype=complex)])
    yfull = np.concatenate([y, np.zeros(len(z) + 2 - len(y), dtype=complex)])
    return np.max(np.abs((B @ zfull - lam * zfull - yfull)[: len(z)]))


def test_resolvent_zero_input():
    z = resolvent_apply(3.0, np.zeros(6))
    assert np.all(z == 0)


def test_resolvent_unit_mass_residual_and_decay():
    y = np.zeros(4, dtype=complex)
    y[0] = 1.0
    z = resolvent_apply(3.0, y)
    assert _pattern_residual(3.0, y, z) < 1e-9
    w_small = min(char_roots(3.0), key=abs)
    # the solution interleaves the two half-chains, so geometric decay
    # shows over index strides of 2
    tail = np.abs(z[10:20])
    ratios = tail[2:] / tail[:-2]
    assert np.allclose(ratios, abs(w_small) ** 2, atol=1e-6)


def test_resolvent_matches_dense_solve():
    rng = np.random.default_rng(1)
    for lam in (3.0, 3.0 + 1.0j, 0.5 - 4.0j):
        y = np.zeros(10, dtype=complex)
        y[:7] = rng.normal(size=7) + 1j * rng.normal(size=7)
        z = resolvent_apply(lam, y)
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


def test_resolvent_errors_on_curve_and_point_set():
    with pytest.raises(OnSpectralCurveError):
        resolvent_apply(1.5, np.ones(3))
    with pytest.raises(SpectralPointSetError):
        resolvent_apply(2.0, np.ones(3))
    with pytest.raises(SpectralPointSetError):
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
    # B and a class that misses the disk take the symmetric path, so their
    # spectra carry no real part at all; the golden class does not
    for op in (build("B", GOLDEN, 161), build("A", STABLE, 160)):
        assert np.all(truncated_spectrum(op).real == 0.0)
    assert np.max(np.abs(truncated_spectrum(build("A", GOLDEN, 160)).real)) > 0.1
