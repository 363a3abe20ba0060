"""A 40-digit oracle for the point spectrum of every class.

The matching function is rebuilt in mpmath straight from the recurrence
definition, without the solver's code: the chain equation is
a_n z_n + z_{n-1} - z_{n+1} = 0 with a_n = lambda_tilde / rho_n and
rho_n = 1/|khat + n p|^2 - 1/|p|^2, taken from exact integers as
(|p|^2 - |k|^2) / (|k|^2 |p|^2) with one rounding.  A full chain has a
solution decaying at both ends exactly when the two tail ratios
z_{-1}/z_0 and z_1/z_0, each built by backward recurrence from its far
end, satisfy the n = 0 equation.  A class with a member on |k| = |p| has
rho_0 = 0 there (counted from that member), so z_0 = 0 splits the chain
into the half-chains n >= 1 and n <= -1, each matched at its first member.

Check 1's comparand, the golden-class root, is recomputed without calling
the package.  The property below calls the package only for the roots it
holds to the oracle.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from euler_spectra.contfrac import CFParams, band_distance, find_eigenvalues, find_eigenvalues_half
from euler_spectra.lattice import WaveVector, canonical_label, circle_member, det

mp = pytest.importorskip("mpmath")

VERIFICATION = Path(__file__).resolve().parents[1] / "src" / "euler_spectra" / "verification.py"


def golden_root_digits() -> tuple[str, str]:
    # read the literal from the source, so no package code runs here
    tree = ast.parse(VERIFICATION.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_ROOT_DIGITS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("GOLDEN_ROOT_DIGITS not found in verification.py")


def small_root(lt, pp):
    # both tail ratios tend to the small root w of w^2 + |p|^2 lt w - 1 = 0
    # (a_n -> -|p|^2 lt)
    s = mp.sqrt(pp * pp * lt * lt + 4)
    w = (-pp * lt + s) / 2
    return w if abs(w) < 1 else (-pp * lt - s) / 2


def matching(khat, p, side, depth):
    """The matching function of the class of khat (integer pairs) as a
    function of lt, truncated at depth: side 0 is the full chain counted
    from khat, side +1 or -1 the half-chain n >= 1 or n <= -1 counted from
    khat, then the class's member on the circle."""
    pp = p[0] ** 2 + p[1] ** 2

    def inv_rho(n):
        k = (khat[0] + n * p[0]) ** 2 + (khat[1] + n * p[1]) ** 2
        return mp.mpf(k * pp) / (pp - k)

    first = 1 if side else 0  # the member the fraction is matched at
    up_inv = [inv_rho(n) for n in range(depth, first, -1)]
    down_inv = [inv_rho(m) for m in range(-depth, -first)]

    def f(lt):
        w = small_root(lt, pp)
        up = w  # z_{n+1}/z_n, stepped down by t_{n-1} = 1/(t_n - a_n)
        for c in up_inv:
            up = 1 / (up - lt * c)
        down = -w  # z_{m-1}/z_m, stepped up by s_{m+1} = 1/(s_m + a_m)
        for c in down_inv:
            down = 1 / (down + lt * c)
        if side > 0:
            return lt * inv_rho(1) - up  # a_1 z_1 - z_2 = 0
        if side < 0:
            return lt * inv_rho(-1) + down  # a_{-1} z_{-1} + z_{-2} = 0
        return lt * inv_rho(0) + down - up

    return f


def test_golden_root_constant_matches_40_digit_recomputation():
    with mp.workdps(40):
        roots = [mp.findroot(matching((1, 0), (1, 1), 0, d), mp.mpc("0.248", "0.352")) for d in (500, 1000)]
        assert abs(roots[0] - roots[1]) < mp.mpf("1e-35")  # truncation depth has converged
        re, im = golden_root_digits()
        assert abs(roots[1] - mp.mpc(re, im)) < mp.mpf("1e-20")


def polished(lt: complex, khat, p, side):
    """The 40-digit root next to lt, at the depth where the constant tail's
    decay ratio |w| gives |w|^depth < 1e-45."""
    with mp.workdps(40):
        z = mp.mpc(lt.real, lt.imag)
        depth = int(mp.ceil(mp.log(mp.mpf("1e-45")) / mp.log(abs(small_root(z, p[0] ** 2 + p[1] ** 2)))))
        return complex(mp.findroot(matching(khat, p, side, depth), (z, z * (1 + mp.mpf("1e-9")))))


@st.composite
def _chain_inside_the_disk(draw):
    # a pump with |p_i| <= 6 and a class with a member inside |k| < |p|:
    # its full chain, or a half-chain counted from the circle member
    p = WaveVector(*draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any)))
    r = int(p.norm2**0.5)
    inside = [
        k
        for k in (WaveVector(k1, k2) for k1 in range(-r, r + 1) for k2 in range(-r, r + 1))
        if 0 < k.norm2 < p.norm2 and det(p, k) != 0
    ]
    assume(inside)  # p = (±1, 0) and (0, ±1) have no member inside the disk
    k = draw(st.sampled_from(inside))
    c = circle_member(k, p)
    if c is None:
        return p.as_tuple(), canonical_label(k, p).as_tuple(), 0
    return p.as_tuple(), c.as_tuple(), draw(st.sampled_from([+1, -1]))


@given(_chain_inside_the_disk())
@example(((1, 1), (1, 0), 0))  # the golden quadruple
@example(((2, 1), (2, -1), -1))  # a real pair of a half-chain
@example(((3, 1), (0, 1), 0))  # two real pairs
@settings(max_examples=10, deadline=None)
def test_every_reported_root_is_within_1e_12_h_of_its_40_digit_root(chain):
    # h = 2/|p|^2 is the band's half-width.  Only roots at least 1e-2 h from
    # the band are held to the oracle, whose depth grows without a cap as
    # |w| -> 1 there; over every class of every pump with |p_i| <= 6 the
    # default search reports none closer (the closest is 0.023 h away, at
    # depth 4568)
    p, khat, side = chain
    params = CFParams.for_class(WaveVector(*khat), WaveVector(*p), 1.0)
    quads = find_eigenvalues(params) if side == 0 else find_eigenvalues_half(params, side)
    h = params.band_halfwidth_tilde()
    for q in quads:
        lt = q.lambda_tilde
        if band_distance(lt, h) >= 1e-2 * h:
            assert abs(polished(lt, khat, p, side) - lt) < 1e-12 * h, (chain, lt)
