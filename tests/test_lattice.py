import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euler_spectra import lattice
from euler_spectra.contfrac import CFParams
from euler_spectra.errors import UsageError
from euler_spectra.lattice import (
    RhoSequence,
    WaveVector,
    canonical_label,
    circle_member,
    classes_meeting_disk,
    det,
    kappa,
    lattice_points_in_disk,
    rho,
    triad_coeff,
)
from euler_spectra.matrixop import build

V = WaveVector

nonzero_vecs = st.builds(
    V, st.integers(-8, 8), st.integers(-8, 8)
).filter(lambda v: not v.is_zero)


def test_triad_coeff_frozen_values():
    assert triad_coeff(V(1, 1), V(1, 1)) == 0.0
    assert triad_coeff(V(1, 1), V(1, 0)) == pytest.approx(-0.25, abs=1e-15)
    # swap symmetry: both the bracket and the determinant flip sign
    assert triad_coeff(V(1, 0), V(1, 1)) == pytest.approx(-0.25, abs=1e-15)


def test_triad_coeff_rejects_zero_vector():
    with pytest.raises(UsageError, match="triad_coeff needs nonzero vectors"):
        triad_coeff(V(0, 0), V(1, 0))
    with pytest.raises(UsageError, match="triad_coeff needs nonzero vectors"):
        triad_coeff(V(1, 0), V(0, 0))


@given(nonzero_vecs, nonzero_vecs)
@settings(max_examples=100)
def test_triad_coeff_symmetric(p, q):
    assert triad_coeff(p, q) == pytest.approx(triad_coeff(q, p), abs=1e-15)


@given(nonzero_vecs, st.integers(-4, 4).filter(lambda r: r != 0))
@settings(max_examples=60)
def test_triad_coeff_zero_on_parallel(p, r):
    q = V(r * p.k1, r * p.k2)
    assert triad_coeff(p, q) == 0.0


@given(nonzero_vecs, nonzero_vecs)
@settings(max_examples=100)
def test_triad_coeff_zero_on_equal_norm(p, q):
    if p.norm2 == q.norm2:
        assert triad_coeff(p, q) == 0.0


def test_rho_frozen_values():
    assert rho(V(1, 0), V(1, 1), 0) == pytest.approx(0.5, abs=1e-15)
    assert rho(V(1, 0), V(1, 1), -1) == pytest.approx(0.5, abs=1e-15)
    assert rho(V(3, 0), V(1, 1), -1) == pytest.approx(1 / 5 - 1 / 2, abs=1e-15)


def test_rho_rejects_origin_member():
    # (2,2) - 2*(1,1) = 0
    with pytest.raises(UsageError, match="the origin carries no mode"):
        rho(V(2, 2), V(1, 1), -2)


def _rho_reference(khat, p, ns):
    # the member norms as exact Python ints, fed to 1/K - 1/P
    norms = [(khat.k1 + n * p.k1) ** 2 + (khat.k2 + n * p.k2) ** 2 for n in map(int, ns)]
    return np.array([1.0 / K - 1.0 / p.norm2 for K in norms])


# the last two rows are far pumps: member norms past int64 (3037000499^2
# wraps in int64 arithmetic) and indices times 10^20 (past any C long)
@pytest.mark.parametrize(
    "khat, p",
    [
        ((1, 0), (1, 1)),
        ((2, -1), (2, 1)),
        ((-3, 5), (1, -2)),
        ((1, 1), (2, 2)),
        ((1, 0), (3, 3037000499)),
        ((1, 0), (1, 10**20)),
    ],
)
def test_rho_over_an_index_array_is_the_scalar_formula(khat, p):
    khat, p = V(*khat), V(*p)
    ns = np.arange(-200, 201)
    expected = _rho_reference(khat, p, ns).tobytes()
    assert rho(khat, p, ns).tobytes() == expected
    assert np.array([rho(khat, p, int(n)) for n in ns]).tobytes() == expected
    assert np.array([rho(khat, p, np.int64(n)) for n in ns]).tobytes() == expected


def test_section_chain_of_a_far_pump_is_a_times_the_formula():
    params = CFParams.for_class(V(1, 0), V(3, 3037000499), 1.0)
    chain = build("A", params, 7).chain
    assert np.array_equal(chain, params.a * _rho_reference(V(1, 0), V(3, 3037000499), np.arange(-3, 4)))


def test_rho_over_an_index_array_rejects_origin_member():
    with pytest.raises(UsageError, match="n=-2"):
        rho(V(2, 2), V(1, 1), np.arange(-5, 5))


def test_rho_past_the_float_range_names_the_member_or_p():
    # |p|^2 ~ 1e300 has a float value, the member 10^10 steps out does not
    with pytest.raises(UsageError, match=r"\|khat \+ n p\|\^2 at n=-10000000000 is past the float range"):
        rho(V(1, 0), V(1, 10**150), np.array([0, 1, -(10**10)], dtype=object))
    with pytest.raises(UsageError, match=r"\|p\|\^2 is past the float range"):
        rho(V(1, 0), V(1, 10**160), 0)
    with pytest.raises(UsageError, match=r"\|p\|\^2 is past the float range"):
        CFParams.for_class(V(1, 0), V(1, 10**160), 1.0)


def test_canonical_label_examples():
    lab_a = canonical_label(V(2, 1), V(1, 1))
    lab_b = canonical_label(V(1, 0), V(1, 1))
    assert lab_a == lab_b
    assert lab_b == V(1, 0)
    assert not lattice.parallel(lab_b, V(1, 1))

    par = canonical_label(V(3, 3), V(1, 1))
    assert lattice.parallel(par, V(1, 1))


def test_canonical_label_tie_break_lexicographic():
    # class of (3,0) mod (1,1): minimal norm 5 at both (1,-2) and (2,-1);
    # the lexicographically greater member wins, matching (1,0) > (0,-1)
    lab = canonical_label(V(3, 0), V(1, 1))
    assert lab == V(2, -1)


# members 10^17 and 10^20 steps out: the nearest index must be rounded in exact integers
@example(k=V(1, 0), p=V(3, 1), n=10**17 + 12345)
@example(k=V(1, 0), p=V(3, 1), n=10**20 + 123457)
@given(nonzero_vecs, nonzero_vecs, st.integers(-5, 5))
@settings(max_examples=150)
def test_canonical_label_constant_on_class(k, p, n):
    shifted = k.plus(n, p)
    if shifted.is_zero:
        return
    assert canonical_label(k, p) == canonical_label(shifted, p)


@pytest.mark.parametrize("p", [V(1, 1), V(2, 1), V(1, 0), V(2, 2)])
def test_canonical_label_partitions_lattice(p):
    # brute force over |k| <= 6: labels agree exactly on class-mates
    # (k ~ k' iff k - k' is an integer multiple of p) and differ otherwise
    pts = lattice_points_in_disk(36)
    labels = {k.as_tuple(): canonical_label(k, p) for k in pts}
    for k in pts:
        for kp in pts:
            d = k - kp
            same_class = (
                d.k1 * p.k2 == d.k2 * p.k1
                and (d.k1 % p.k1 == 0 if p.k1 else d.k1 == 0)
                and (d.k2 % p.k2 == 0 if p.k2 else d.k2 == 0)
            )
            assert (labels[k.as_tuple()] == labels[kp.as_tuple()]) == same_class


def test_classes_meeting_disk_p11():
    labels = classes_meeting_disk(V(1, 1), V(1, 1).norm2)
    keys = {lab.as_tuple() for lab in labels}
    # the two open-disk classes named in the worked example
    assert (1, 0) in keys and (0, 1) in keys
    # tangent classes touch the closed disk exactly on the circle
    assert (1, -1) in keys and (-1, 1) in keys
    # the parallel class is present but flagged
    par = [lab for lab in labels if lattice.parallel(lab, V(1, 1))]
    assert len(par) == 1 and par[0].as_tuple() == (1, 1)
    assert len(labels) == 5


def test_classes_meeting_disk_p10_brute_force():
    labels = classes_meeting_disk(V(1, 0), V(1, 0).norm2)
    brute = {canonical_label(k, V(1, 0)).as_tuple() for k in lattice_points_in_disk(1)}
    assert {lab.as_tuple() for lab in labels} == brute
    assert brute == {(0, 1), (0, -1), (1, 0)}


def test_classes_meeting_disk_excludes_far_class():
    labels = classes_meeting_disk(V(1, 1), V(1, 1).norm2)
    far = canonical_label(V(3, 0), V(1, 1))
    assert far not in labels
    # its nearest member has |k|^2 = 5 > 2
    assert far.norm2 == 5


def test_classes_meeting_disk_is_capped():
    assert lattice.DISK_CAP == 1 << 12
    labels = classes_meeting_disk(V(64, 0), lattice.DISK_CAP)
    assert {(0, 64), (32, 0)} <= {lab.as_tuple() for lab in labels}
    assert max(lab.norm2 for lab in labels) == lattice.DISK_CAP
    with pytest.raises(UsageError, match="DISK_CAP = 4096, got 4097"):
        classes_meeting_disk(V(1, 1), lattice.DISK_CAP + 1)


def test_rho_sequence_memoizes_and_converges_to_limit():
    seq = RhoSequence(V(1, 0), V(1, 1))
    limit = -1.0 / V(1, 1).norm2
    assert seq.value(0) == pytest.approx(0.5, abs=1e-15)
    assert seq.value(0) == seq.values[len(seq.values) // 2]  # memoized, rho_0 at the middle of the array
    # tail approaches the limit at least as fast as C/|n|
    for n in list(range(3, 60)) + [200, 500]:
        for signed in (n, -n):
            gap = abs(seq.value(signed) - limit)
            assert gap < (1 / V(1, 1).norm2) * 4.0 / abs(signed)
    assert abs(seq.value(500) - limit) < abs(seq.value(5) - limit)


@given(nonzero_vecs, nonzero_vecs)
@settings(max_examples=100)
def test_rho_negative_iff_class_avoids_disk(khat, p):
    lab = canonical_label(khat, p)
    if lattice.parallel(lab, p):
        return
    avoids = lab.norm2 > p.norm2
    rhos = [rho(lab, p, n) for n in range(-12, 13)]
    assert (max(rhos) < 0) == avoids


def test_kappa_examples():
    assert kappa(V(1, 0), V(1, 1)) == 2  # golden class: (1,0) and (0,-1)
    assert kappa(V(3, 0), V(1, 1)) == kappa(V(-1, 2), V(1, 1)) == 0  # classes missing the disk
    assert kappa(V(0, 1), V(3, 1)) == 2
    # circle class of p = (2,1): (0,-2) = c - p is its one member inside
    c = V(2, -1)
    assert (kappa(c, V(2, 1)), kappa(c, V(2, 1), +1), kappa(c, V(2, 1), -1)) == (1, 0, 1)


# members 10^17 and 10^20 steps out: the nearest index must be rounded in exact integers
@example(k=V(1, 0), p=V(3, 1), n=10**17 + 12345)
@example(k=V(1, 0), p=V(3, 1), n=10**20 + 123457)
@given(nonzero_vecs, nonzero_vecs, st.integers(-5, 5))
@settings(max_examples=150)
def test_kappa_counts_the_positive_rho(k, p, n):
    # kappa is the number of rho_n > 0 along the chain, whichever member it
    # is counted from; for a circle class each side counts its own members
    if det(p, k) == 0:
        return
    positive = [m for m in range(-12, 13) if rho(k, p, m) > 0]
    if not k.plus(n, p).is_zero:
        assert kappa(k.plus(n, p), p) == len(positive)
    c = circle_member(k, p)
    if c is not None:
        shift = (k - c).dot(p) // p.norm2  # k = c + shift p
        sides = [kappa(c, p, side) for side in (+1, -1)]
        assert sides == [sum(m + shift > 0 for m in positive), sum(m + shift < 0 for m in positive)]


def test_kappa_sums_to_the_points_inside_the_disk():
    # each non-parallel lattice point with 0 < |k| < |p| lies in exactly one
    # class meeting the closed disk, so summed over those classes kappa
    # counts every such point once
    for p in (V(p1, p2) for p1 in range(-4, 5) for p2 in range(-4, 5) if p1 or p2):
        inside = [k for k in lattice_points_in_disk(p.norm2) if k.norm2 < p.norm2 and det(p, k) != 0]
        labels = [lab for lab in classes_meeting_disk(p, p.norm2) if not lattice.parallel(lab, p)]
        assert sum(kappa(lab, p) for lab in labels) == len(inside), p


@pytest.mark.parametrize("k, p", [(V(0, 0), V(1, 1)), (V(1, 0), V(0, 0))])
def test_canonical_label_refuses_a_zero_vector(k, p):
    with pytest.raises(UsageError, match="nonzero k and p"):
        canonical_label(k, p)
