"""Truncated infinite-matrix realizations of the chain operator.

Relabeling the two-sided chain index onto the positive integers
(n >= 1 -> 2n, n <= 0 -> 2|n| + 1) turns the chain operator into a
one-sided pentadiagonal ("2x2+1"-banded) infinite matrix

    A = i a P diag(rho),

P the 0/1 pattern of chain neighbors |n_i - n_j| = 1 and rho_n taken at
each column's chain index: a compact perturbation of the
constant-coefficient matrix B = i b P (b = a * rho_inf).  The top-left
N x N section covers the chain window n = -((N-1)//2) .. N//2, and a
TruncatedOperator holds it as its N real column coefficients in chain
order; only TruncatedOperator.entries lays them out through relabel.
Section spectra serve as an oracle.  B's spectral curve and its resolvent
are in closed form: relabel only permutes the two-sided chain, so B's
resolvent is the two-sided path's Toeplitz kernel w^|n - n'| / (w - 1/w),
w + 1/w = lambda_b, |w| < 1, read at the chain indices of the matrix
indices.  The decaying-solution determinant test (det M) works on the
two-sided chain too: two ratio sweeps seeded with that w, counted from
the class's minimal member.

Scalings used here (lam = physical eigenvalue):
    lambda_b   = lam / (i b)   -- B-normalized; spectral curve = [-2, 2]
    lambda_hat = lam / (i a)   -- recurrence-normalized, for the det M test
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contfrac import CFParams, band_distance
from .errors import NumericalError, UsageError
from .lattice import rho

__all__ = [
    "TruncatedOperator",
    "BandSpec",
    "relabel",
    "unrelabel",
    "pattern",
    "build",
    "truncated_spectrum",
    "essential_band",
    "resolvent_apply",
    "green_kernel",
    "detM_eigentest",
    "classify_band_distance",
]

DENSE_CAP = 2048  # guards the dense solves of order <= N/2; O(N^3) beyond this is a mistake
TAIL_CAP = 1 << 20  # rows of resolvent_apply, sweep length of det M; both grow like 1/(1 - |w|)
CURVE_TOL = 1e-12
ISOLATION_THRESHOLD = float(np.sqrt(np.finfo(float).eps))  # band distance / |b|; see classify_band_distance


def relabel(n):
    """Two-sided chain index -> positive matrix index: n>=1 -> 2n,
    n<=0 -> 2|n|+1.  Bijective onto {1, 2, 3, ...}; n is an int or an
    integer array."""
    return 2 * abs(n) + (n <= 0)


def unrelabel(m):
    """Inverse of relabel; m is an int or an integer array."""
    if np.min(m, initial=1) < 1:
        raise UsageError("matrix indices start at 1")
    return m // 2 * (1 - 2 * (m % 2))  # even m -> m/2, odd m -> -(m-1)/2


def pattern(N: int) -> np.ndarray:
    """0/1 pattern P of the top-left N x N section: chain index n couples
    to n - 1 and n + 1."""
    n = unrelabel(np.arange(1, N + 1))
    return (np.abs(n[:, None] - n) == 1).astype(float)


@dataclass
class TruncatedOperator:
    """Top-left N x N section i P diag(chain) of one of the three infinite
    matrices, held as its real column coefficients: chain[j] = a * coeff_n
    at the chain index n = j - (N - 1) // 2, over the window
    n = -((N-1)//2) .. N//2 in increasing order."""

    size: int
    chain: np.ndarray
    b: float  # a * rho_inf = -a / |p|^2

    @property
    def entries(self) -> np.ndarray:
        """The dense section, rows and columns in relabel order: the chain
        coefficient of each column times i P.  O(N^2); no solver reads it."""
        n = unrelabel(np.arange(1, self.size + 1))
        return 1j * pattern(self.size) * self.chain[n + (self.size - 1) // 2]


@dataclass(frozen=True)
class BandSpec:
    """Essential band: the segment between +-2bi on the imaginary axis."""

    endpoints: tuple[complex, complex]
    width: float


def build(kind: str, params: CFParams, N: int) -> TruncatedOperator:
    """Assemble the N x N section i a P diag(coeff) of A (coeff = rho_n),
    B (the limit rho_inf) or C = A - B (rho_n - rho_inf) as its N chain
    coefficients a * coeff_n, n over the section's chain window; O(N)
    memory."""
    if kind not in ("A", "B", "C"):
        raise UsageError(f"kind must be 'A', 'B' or 'C', got {kind!r}")
    if N < 5:
        raise UsageError("N >= 5 required to include the coupling rows")
    rho_inf = params.rho_inf
    coeff = np.full(N, rho_inf)
    if kind != "B":
        coeff = rho(params.khat, params.p, np.arange(-((N - 1) // 2), N // 2 + 1))
        if kind == "C":
            coeff = coeff - rho_inf
    return TruncatedOperator(size=N, chain=params.a * coeff, b=params.a * rho_inf)


def truncated_spectrum(op: TruncatedOperator) -> np.ndarray:
    """All N eigenvalues of the section, sorted by (imag, real) for
    reproducibility.  Solved in real arithmetic, on half-order problems.

    The section is i T, T the zero-diagonal tridiagonal of the chain window
    with the coefficient of each column (the relabel map permutes T's rows
    and columns alike, which leaves the spectrum alone).  The
    characteristic polynomial of T depends only on the products
    c = chain[n] chain[n+1] of its neighbouring coefficients.  The chain
    is first scaled by an exact power of two that brings its largest
    coefficient into [1/2, 1), and the eigenvalues are scaled back at the
    end: the spectrum is homogeneous in the chain, so the answer in units
    of a does not depend on gamma's magnitude (unscaled, the products go
    subnormal or zero for |gamma| below about 1e-154 and overflow above
    about 1e154).  Each exact c == 0 (a zero rho makes two) cuts the chain
    into blocks, solved one by one (_block_eigenvalues).  A block is
    bipartite, so its eigenvalues are +-sqrt(mu) for the eigenvalues mu of
    its square on the smaller parity sublattice, plus one exact zero for an
    odd block: LAPACK sees order L // 2 for a block of L sites.  The cut
    is needed: in an unsplit chain a zero product leaves a rounding-level
    mu, whose square root lands at about sqrt(eps) |b|, near the isolation
    threshold.

    The spectrum is closed under negation and conjugation bit for bit.
    The price is the square root, which magnifies the error of a small mu:
    over the 448-section scan of classify_band_distance no eigenvalue
    moved by more than 5.5e-14 |b| at N=200 and 9.5e-14 |b| at N=400, and
    on the worst N=200 section (p = (2,1), khat = (4,1)) the error against
    a 40-digit root of the characteristic polynomial is 5.5e-14 |b|,
    against 2.1e-14 |b| for the order-N solver.
    """
    if op.size > DENSE_CAP:
        raise UsageError(f"dense solve capped at N = {DENSE_CAP}")
    scale = math.ldexp(1.0, -math.frexp(np.abs(op.chain).max(initial=0.0))[1])
    chain = scale * op.chain
    c = chain[1:] * chain[:-1]
    cuts = np.concatenate(([-1], np.flatnonzero(c == 0.0), [c.size]))
    ev = (1j / scale) * np.concatenate([_block_eigenvalues(c[lo + 1 : hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])
    order = np.lexsort((ev.real, ev.imag))
    return ev[order]


def _block_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the zero-diagonal tridiagonal T of one chain block of
    L = c.size + 1 sites whose neighbour products c are all nonzero.

    T maps one parity sublattice into the other, so T^2 splits into two
    tridiagonals that share their nonzero eigenvalues mu, and T has the
    eigenvalues +-sqrt(mu) and L - 2 (L // 2) zeros.  On the odd sites
    q = 1, 3, ... (L // 2 of them) T^2 has diagonal c[q-1] + c[q] and
    off-diagonals c[q], c[q+1] (a real diagonal similarity of T).  When
    every c > 0, T is similar to the symmetric tridiagonal with
    off-diagonal sqrt(c), and the sqrt(mu) are the singular values of the
    bidiagonal block that couples its odd sites to its even ones (Golub &
    Kahan, SIAM J. Numer. Anal. B 2 (1965) 205); otherwise real eigvals
    returns the mu, whose complex ones come in exact conjugate pairs.
    """
    half = (c.size + 1) // 2
    zeros = np.zeros(c.size + 1 - 2 * half)
    if half == 0:
        return zeros
    if np.all(c > 0.0):
        root = np.sqrt(c)
        mu_root = np.linalg.svd(_square_bidiagonal(root[0::2], root[1::2]), compute_uv=False)
    else:
        q = np.arange(1, c.size + 1, 2)
        padded = np.concatenate(([0.0], c, [0.0]))  # padded[q] = c[q-1], zero past either end
        k = np.arange(half - 1)
        M = np.diag(padded[q] + padded[q + 1])
        M[k, k + 1] = c[q[:-1]]
        M[k + 1, k] = c[q[:-1] + 1]
        mu_root = np.sqrt(np.linalg.eigvals(M).astype(complex))
    return np.concatenate((mu_root, -mu_root, zeros))


def _square_bidiagonal(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A square upper bidiagonal with the singular values of the upper
    bidiagonal with diagonal diag and superdiagonal upper.

    For an even block upper is one shorter than diag and the matrix is
    square already.  For an odd block both have length m: that m x (m+1)
    matrix is reduced to m x m by m Givens rotations, the transpose of a
    QR factorization.  Every quantity stays positive, so no step cancels
    and each singular value keeps its relative accuracy.
    """
    m = diag.size
    if upper.size == m:
        out_diag, out_upper = np.empty(m), np.empty(m - 1)
        d = float(diag[0])
        for j in range(m):
            r = math.hypot(d, float(upper[j]))
            out_diag[j] = r
            if j + 1 < m:
                out_upper[j] = upper[j] * (diag[j + 1] / r)
                d = d * (diag[j + 1] / r)
        diag, upper = out_diag, out_upper
    B = np.diag(diag)
    B[np.arange(m - 1), np.arange(1, m)] = upper
    return B


def essential_band(params: CFParams) -> BandSpec:
    """Band endpoints +-2bi with b = -a/|p|^2; width 4|b|."""
    b = params.a * params.rho_inf
    lo, hi = sorted((2j * b, -2j * b), key=lambda z: z.imag)
    return BandSpec(endpoints=(lo, hi), width=4.0 * abs(b))


def _small_root(lambda_b: complex) -> tuple[complex, complex]:
    """The root w of w^2 - lambda_b w + 1 = 0 inside the unit circle, the
    decay ratio of B's resolvent per chain index, and w - 1/w.

    With the discriminant s = sqrt((lambda_b - 2)(lambda_b + 2)), signed
    so that |lambda_b + s| >= 2, w = (lambda_b - s) / 2 = 2 / (lambda_b + s)
    and w - 1/w = -s.  Each is taken in the form that does not cancel: the
    discriminant as a product rather than lambda_b^2 - 4, which loses its
    digits next to the band ends, and w as a quotient rather than a
    difference, which loses them for large lambda_b.

    A lambda_b within CURVE_TOL of the curve [-2, 2] raises NumericalError:
    at its end points w = +-1 and w - 1/w vanishes, and elsewhere on it
    both roots lie on the unit circle.
    """
    if abs(lambda_b.imag) < CURVE_TOL and abs(lambda_b.real) <= 2.0:
        if abs(abs(lambda_b.real) - 2.0) < CURVE_TOL:
            raise NumericalError(f"lambda_b = {lambda_b} is a boundary point of the curve")
        raise NumericalError(f"lambda_b = {lambda_b} lies on the spectral curve")
    s = np.sqrt((lambda_b - 2.0) * (lambda_b + 2.0))
    if abs(lambda_b + s) < abs(lambda_b - s):
        s = -s
    w = 2.0 / (lambda_b + s)
    if abs(w) >= 1.0 - CURVE_TOL:
        raise NumericalError(f"lambda_b = {lambda_b} has no root inside the unit circle")
    return complex(w), complex(-s)


def green_kernel(lambda_b: complex, n_max: int, j_max: int) -> np.ndarray:
    """Green's function G = (B_pattern - lambda_b I)^-1 over matrix indices
    1..n_max (rows) and 1..j_max (columns), for lambda_b off the curve.

    relabel is a bijection of the two-sided chain onto the matrix indices,
    so B_pattern is the adjacency of the two-sided path with its rows and
    columns permuted alike, and G is the path's Toeplitz resolvent
    w^|n - n'| / (w - 1/w) at the chain indices n = unrelabel(row) and
    n' = unrelabel(column), w the small root of w + 1/w = lambda_b (Teschl,
    Jacobi Operators and Completely Integrable Nonlinear Lattices, AMS
    2000, ch. 1).
    """
    w, w_minus_inv = _small_root(complex(lambda_b))  # rejects curve and point-set values
    n = unrelabel(np.arange(1, n_max + 1))
    j = unrelabel(np.arange(1, j_max + 1))
    return w ** np.abs(n[:, None] - j) / w_minus_inv


def resolvent_apply(lambda_b: complex, y: np.ndarray) -> np.ndarray:
    """Solve (B_pattern - lambda_b I) z = y for finitely supported y
    (y[0] is the j = 1 slot), as green_kernel(lambda_b, n_out, len(y)) @ y
    without that matrix.

    Returns z over 1..n_out, n_out sized so that the geometric tail has
    decayed below rounding: G decays by |w| per chain index, which is
    sqrt|w| per matrix index, since relabel interleaves the two
    half-chains.  n_out grows like 1/(1 - |w|) as lambda_b nears the
    curve; a point that needs more than TAIL_CAP = 2^20 rows raises
    NumericalError before anything of that length is allocated.

    The rows 1..n_out cover a window of the chain that contains the
    window of y's slots, so y is placed on its chain window (one slot
    longer, never empty), convolved with w^|d| over the offsets d that
    reach the row window, read back in relabel order and divided once by
    w - 1/w: O(n_out len(y)) work in O(n_out) memory.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1:
        raise UsageError("y must be a one-dimensional sequence")
    lam = complex(lambda_b)
    w, w_minus_inv = _small_root(lam)  # raises on the curve
    decay = max(math.sqrt(abs(w)), 1e-6)
    n_out = len(y) + max(8, int(np.ceil(np.log(1e-16) / np.log(decay))))
    if n_out > TAIL_CAP:
        raise NumericalError(f"lambda_b = {lam} is too near the curve: the resolvent needs {n_out} rows, over {TAIL_CAP}")
    n = unrelabel(np.arange(1, n_out + 1))
    m = len(y) + 1
    lo, y_lo = n.min(), n[:m].min()
    y_chain = np.zeros(m, dtype=complex)
    y_chain[n[: len(y)] - y_lo] = y
    # the valid part of the full convolution: z_chain[i] = sum_t y_chain[t] w^|lo + i - y_lo - t|
    d = np.arange(lo - y_lo - m + 1, n.max() - y_lo + 1)
    return np.convolve(y_chain, w ** np.abs(d), mode="valid")[n - lo] / w_minus_inv


def classify_band_distance(op: TruncatedOperator, eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask: True where an eigenvalue counts as isolated from the
    band segment i[-2|b|, 2|b|], i.e. lies farther from it than
    ISOLATION_THRESHOLD * |b| = sqrt(eps) |b|.

    A section of A is i a P diag(rho) with P diag(rho) real, so its band
    eigenvalues are exactly imaginary in exact arithmetic.  truncated_spectrum
    returns them exactly imaginary too: a band eigenvalue is i sqrt(mu) for
    a real mu > 0, a singular value or a real eigenvalue of real eigvals,
    which has zero imaginary part.  For every non-parallel khat with
    |khat_i| <= 4 and pumps (1,1), (2,1), (1,0), (2,2), (3,1), (3,2) at
    N = 200, 400 and 1000 (448 sections each) the largest band distance is
    0, and genuine point-spectrum eigenvalues lie at least 0.164 |b| away;
    no eigenvalue lies between 1e-8 |b| and the threshold.  The threshold
    is fixed in advance, about 1e7 below the smallest genuine distance, so
    the split does not depend on the LAPACK build or on the rest of the
    spectrum.
    """
    b = abs(op.b)
    return band_distance(eigenvalues, 2.0 * b) > ISOLATION_THRESHOLD * b


def detM_eigentest(params: CFParams, lambda_hat: complex) -> complex:
    """Determinant test for point-spectrum membership at lam = i a lambda_hat:
    zero exactly where the solutions that decay as n -> +infinity and as
    n -> -infinity meet at the junction of the chain rows

        lambda_hat y_n = rho_{n-1} y_{n-1} + rho_{n+1} y_{n+1}

    (minimal solutions: Gautschi, SIAM Rev. 9 (1967) 24).  Each decaying
    solution is carried as its ratios, by a backward sweep seeded at the
    far tail with the decay ratio r of B's resolvent (the small root of
    r + 1/r = lam/(i b)): the ratio t_n = y_{n+1}/y_n of the upper one
    runs t_{n-1} = rho_{n-1} / (lambda_hat - rho_{n+1} t_n) from t = r at
    n_tail down to t+ = y_2/y_1, and the mirror sweep runs from -n_tail up
    to t- = y_{-1}/y_0.  Rows 0 and 1 then give

        det M = rho_0 rho_1 - (rho_{-1} t- - lambda_hat)(rho_2 t+ - lambda_hat),

    the coupling determinant with its columns divided by y_1 and y_0.  The
    ratios are analytic in lambda_hat where finite, so a Newton polish of
    det M converges to the root.

    det M is counted from the class's minimal member (CFParams.minimal),
    from which find_eigenvalues searches too: the roots belong to the
    class, but counted from a far member det M can carry a pole next to a
    root (p = (3,0) from the member (9,-1): a pole about 3e-4 from the
    root at lambda_tilde = 0.138), and a Newton polish from an offset seed
    then misses the root.  Over pumps |p_i| <= 3, every non-circle class
    whose minimal member khat lies inside the disk and the members
    khat + n p, n = -3..3, a polish of det M counted from the member given
    missed 56 of 4032 roots, and counted from the minimal member none.

    Kept as the independent oracle for continued-fraction roots: it reads
    lattice.rho, not params.rho_seq, and its recurrence and seed share no
    code with contfrac's kernel.  Like the full-chain solvers it refuses
    every member of a class with a member on the circle |k| = |p|, where
    rho vanishes and the chain splits.  Each sweep runs over n_tail
    indices, which grows like 1/(1 - |r|) next to the band; a point that
    needs more than TAIL_CAP = 2^20 raises NumericalError before the
    sweeps are allocated, and so does a result that is not finite, an
    exactly zero sweep denominator included.
    """
    params.check_full_chain()
    params = params.minimal()
    r, _ = _small_root(lambda_hat / params.rho_inf)  # lam/(i b); raises on the essential band
    n_tail = max(64, int(np.ceil(np.log(1e-14) / np.log(max(abs(r), 1e-12)))) + 16)
    if n_tail > TAIL_CAP:
        raise NumericalError(f"lambda_hat = {lambda_hat} is too near the band: det M needs {n_tail} tail rows, over {TAIL_CAP}")
    chain = rho(params.khat, params.p, np.arange(-n_tail - 1, n_tail + 2))
    pos, neg = chain[n_tail + 1 :].tolist(), chain[n_tail + 1 :: -1].tolist()  # rho_n, rho_-n; n = 0..n_tail+1
    # numpy scalars: a zero denominator gives inf or nan instead of raising
    t_plus = t_minus = np.complex128(r)
    with np.errstate(all="ignore"):
        for n in range(n_tail, 1, -1):
            t_plus = pos[n - 1] / (lambda_hat - pos[n + 1] * t_plus)
        for n in range(n_tail, 0, -1):
            t_minus = neg[n - 1] / (lambda_hat - neg[n + 1] * t_minus)
        det = pos[0] * pos[1] - (neg[1] * t_minus - lambda_hat) * (pos[2] * t_plus - lambda_hat)
    if not np.isfinite(det):
        raise NumericalError(f"det M is not finite at lambda_hat = {lambda_hat}: a sweep denominator vanished or overflowed")
    return complex(det)
