"""Truncated infinite-matrix realizations of the chain operator.

Relabeling the two-sided chain index onto the positive integers
(n >= 1 -> 2n, n <= 0 -> 2|n| + 1) turns the chain operator into a
one-sided pentadiagonal ("2x2+1"-banded) infinite matrix

    A = i a P diag(rho),

P the 0/1 pattern of chain neighbors |n_i - n_j| = 1 and rho_n taken at
each column's chain index: a compact perturbation of the
constant-coefficient matrix B = i b P (b = a * rho_inf).  Finite top-left
sections serve as a spectrum oracle; B's spectral curve, resolvent Green's
function, and the decaying-solution determinant test are implemented in
closed form.

Scalings used here (lam = physical eigenvalue):
    lambda_b   = lam / (i b)   -- B-normalized; spectral curve = [-2, 2]
    lambda_hat = lam / (i a)   -- recurrence-normalized, for the det M test
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .contfrac import CFParams, band_distance
from .errors import (
    DomainError,
    NumericalError,
    OnSpectralCurveError,
    SpectralPointSetError,
)
from .lattice import rho

__all__ = [
    "TruncatedOperator",
    "BandSpec",
    "relabel",
    "unrelabel",
    "pattern",
    "build",
    "truncated_spectrum",
    "char_roots",
    "essential_band",
    "resolvent_apply",
    "green_kernel",
    "detM_eigentest",
    "classify_band_distance",
]

DENSE_CAP = 2048  # dense eigensolver guard; O(N^3) beyond this is a mistake
CURVE_TOL = 1e-12
ISOLATION_THRESHOLD = float(np.sqrt(np.finfo(float).eps))  # band distance / |b|; see classify_band_distance


def relabel(n):
    """Two-sided chain index -> positive matrix index: n>=1 -> 2n,
    n<=0 -> 2|n|+1.  Bijective onto {1, 2, 3, ...}; n is an int or an
    integer array."""
    return 2 * abs(n) + (n <= 0)


def unrelabel(m):
    """Inverse of relabel; m is an int or an integer array."""
    if np.min(m) < 1:
        raise DomainError("matrix indices start at 1")
    return m // 2 * (1 - 2 * (m % 2))  # even m -> m/2, odd m -> -(m-1)/2


def _coupled(N: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) of the pattern's nonzeros in the top-left N x N
    section: chain index n couples to n - 1 and n + 1."""
    n = unrelabel(np.arange(1, N + 1))
    rows = np.tile(np.arange(N), 2)
    cols = relabel(np.concatenate([n - 1, n + 1])) - 1
    return rows[cols < N], cols[cols < N]


def pattern(N: int) -> np.ndarray:
    """0/1 pattern P of the top-left N x N section."""
    P = np.zeros((N, N))
    P[_coupled(N)] = 1.0
    return P


@dataclass
class TruncatedOperator:
    """Top-left N x N section of one of the three infinite matrices."""

    kind: str  # 'A', 'B' or 'C'
    size: int
    entries: np.ndarray
    params: CFParams
    b: float  # a * rho_inf = -a / |p|^2


@dataclass(frozen=True)
class BandSpec:
    """Essential band: the segment between +-2bi on the imaginary axis."""

    endpoints: tuple[complex, complex]
    width: float


def build(kind: str, params: CFParams, N: int) -> TruncatedOperator:
    """Assemble the N x N section i a P diag(coeff) of A (coeff = rho_n),
    B (the limit rho_inf) or C = A - B (rho_n - rho_inf), n the chain
    index of each column."""
    if kind not in ("A", "B", "C"):
        raise DomainError(f"kind must be 'A', 'B' or 'C', got {kind!r}")
    if N < 5:
        raise DomainError("N >= 5 required to include the coupling rows")
    rho_inf = params.rho_inf
    rows, cols = _coupled(N)
    coeff = rho_inf
    if kind != "B":
        coeff = rho(params.khat, params.p, unrelabel(cols + 1))
        if kind == "C":
            coeff = coeff - rho_inf
    # scattered into zeros rather than broadcast over the section, so the
    # memory pages that hold no entry are never touched (peak memory at large N)
    M = np.zeros((N, N), dtype=complex)
    M[rows, cols] = 1j * params.a * coeff
    return TruncatedOperator(kind=kind, size=N, entries=M, params=params, b=params.a * rho_inf)


def truncated_spectrum(op: TruncatedOperator) -> np.ndarray:
    """All N eigenvalues of the section, sorted by (imag, real) for
    reproducibility.  Solved in real arithmetic only.

    build makes every section i R with R = entries.imag real: the
    zero-diagonal tridiagonal of the chain window, its rows scattered by
    relabel.  The characteristic polynomial of such a tridiagonal depends
    only on the products c = R[n, n+1] R[n+1, n] of its off-diagonal pairs
    (n, n+1 neighbouring chain indices).  When every c >= 0 (each B
    section, each class that misses the disk, a chain that a zero rho cuts
    into blocks of one sign) the eigenvalues are those of the symmetric
    tridiagonal with off-diagonal sqrt(c), which eigvalsh solves; otherwise
    R goes to real eigvals (Hessenberg + shifted QR), whose complex
    eigenvalues come in exact conjugate pairs.
    """
    if op.size > DENSE_CAP:
        raise DomainError(f"dense solve capped at N = {DENSE_CAP}")
    R = op.entries.imag
    slots = np.argsort(unrelabel(np.arange(1, op.size + 1)))  # matrix slots in chain order
    c = R[slots[:-1], slots[1:]] * R[slots[1:], slots[:-1]]
    if np.all(c >= 0.0):
        S = np.zeros((op.size, op.size))
        k = np.arange(op.size - 1)
        S[k + 1, k] = np.sqrt(c)  # eigvalsh reads the lower triangle
        ev = 1j * np.linalg.eigvalsh(S)
    else:
        ev = 1j * np.linalg.eigvals(R)
    order = np.lexsort((ev.real, ev.imag))
    return ev[order]


def char_roots(lambda_b: complex) -> tuple[complex, complex, complex, complex]:
    """Roots {w, -w, 1/w, -1/w} of the characteristic polynomial
    1 - lambda_b w^2 + w^4 of the constant-coefficient difference equation;
    their product is 1.  Kept public as a test oracle for the roots that the
    resolvent and the det-M test build on."""
    lam = complex(lambda_b)
    w2 = 0.5 * (lam + np.sqrt(lam * lam - 4.0))
    w = np.sqrt(w2)
    if w == 0.0:  # cannot happen for finite lambda; guard the division
        raise NumericalError("degenerate characteristic root")
    return (complex(w), complex(-w), complex(1.0 / w), complex(-1.0 / w))


def essential_band(params: CFParams) -> BandSpec:
    """Band endpoints +-2bi with b = -a/|p|^2; width 4|b|."""
    b = params.a * params.rho_inf
    lo, hi = sorted((2j * b, -2j * b), key=lambda z: z.imag)
    return BandSpec(endpoints=(lo, hi), width=4.0 * abs(b))


def _on_curve(lambda_b: complex) -> bool:
    return abs(lambda_b.imag) < CURVE_TOL and -2.0 <= lambda_b.real <= 2.0


def _reject_curve_points(lambda_b: complex) -> None:
    if _on_curve(lambda_b):
        if abs(abs(lambda_b.real) - 2.0) < CURVE_TOL:
            raise SpectralPointSetError(f"lambda_b = {lambda_b} is a boundary point of the curve")
        raise OnSpectralCurveError(f"lambda_b = {lambda_b} lies on the spectral curve")


def _small_root(lambda_b: complex) -> complex:
    _reject_curve_points(lambda_b)
    ws = char_roots(lambda_b)
    w = min(ws, key=abs)
    if abs(w) >= 1.0 - CURVE_TOL:
        raise OnSpectralCurveError(f"lambda_b = {lambda_b} has no root inside the unit circle")
    return w


def _matching_matrix(lambda_b: complex, w: complex) -> np.ndarray:
    return np.array(
        [
            [-lambda_b * w + w**2 + w**3, lambda_b * w + w**2 - w**3],
            [w - lambda_b * w**2 + w**4, -w - lambda_b * w**2 + w**4],
        ],
        dtype=complex,
    )


def green_kernel(lambda_b: complex, n_max: int, j_max: int) -> np.ndarray:
    """Green's function G(n, j) of the one-sided constant-coefficient
    section, n = 1..n_max, j = 1..j_max, for lambda_b off the curve.

    Variation of constants over the four characteristic solutions gives a
    translation kernel g(n, j) plus a boundary correction through the
    inverse of the 2 x 2 matching matrix; (B_pattern - lambda_b I) applied
    to G's columns reproduces identity columns.
    """
    lam = complex(lambda_b)
    w = _small_root(lam)  # rejects curve and point-set values

    # 4x4 Wronskian-style determinant of the characteristic solutions,
    # constant in the translation index
    e = np.arange(1, 5)[:, None]
    W0 = complex(np.linalg.det(np.hstack([w**e, (-w) ** e, w**-e, (-w) ** -e])))
    if W0 == 0.0:
        raise SpectralPointSetError(f"degenerate characteristic system at lambda_b = {lam}")

    cminus = 2.0 * (1.0 - w**-4) / W0  # weights the forward-decaying part
    cplus = 2.0 * (1.0 - w**4) / W0  # weights the backward sum

    def g(n, j):
        """Translation kernel g(n, j) over broadcast index arrays."""
        forward = j <= n + 1
        e = np.where(forward, n - j + 2, j - n - 2)
        return np.where(j == 1, 0j, np.where(forward, cminus, -cplus) * (w**e + (-w) ** e))

    M = _matching_matrix(lam, w)
    det_m = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det_m) < 1e-14:
        raise SpectralPointSetError(f"matching matrix singular at lambda_b = {lam}")
    Minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex) / det_m

    j = np.arange(1, j_max + 1)
    n = np.arange(1, n_max + 1)[:, None]
    # (2, j_max): the weights of w^n and (-w)^n in each column
    ab = Minv @ np.array(
        [(j == 1) + lam * g(1, j) - g(2, j) - g(3, j), (j == 2) - g(1, j) + lam * g(2, j) - g(4, j)]
    )
    return ab[0] * w**n + ab[1] * (-w) ** n + g(n, j)


def resolvent_apply(lambda_b: complex, y: np.ndarray) -> np.ndarray:
    """Solve (B_pattern - lambda_b I) z = y for finitely supported y
    (y[0] is the j = 1 slot), via the explicit Green's function.

    Returns z over 1..n_out, n_out sized so that the geometric tail has
    decayed below rounding.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1:
        raise DomainError("y must be a one-dimensional sequence")
    lam = complex(lambda_b)
    w = _small_root(lam)  # raises on the curve
    decay = max(abs(w), 1e-6)
    n_out = len(y) + max(8, int(np.ceil(np.log(1e-16) / np.log(decay))))
    G = green_kernel(lam, n_out, len(y))
    return G @ y


def classify_band_distance(op: TruncatedOperator, eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask: True where an eigenvalue counts as isolated from the
    band segment i[-2|b|, 2|b|], i.e. lies farther from it than
    ISOLATION_THRESHOLD * |b| = sqrt(eps) |b|.

    A section of A is i a P diag(rho) with P diag(rho) real, so its band
    eigenvalues are exactly imaginary in exact arithmetic.  truncated_spectrum
    returns them exactly imaginary too: eigvalsh has only real eigenvalues,
    and real eigvals returns a real eigenvalue with zero imaginary part.
    For every non-parallel khat with |khat_i| <= 4 and pumps (1,1), (2,1),
    (1,0), (2,2), (3,1), (3,2) at N = 200, 400 and 1000 (448 sections each,
    242 on the symmetric path) the largest band distance is 0, and genuine
    point-spectrum eigenvalues lie at least 0.164 |b| away; no eigenvalue
    lies between 1e-8 |b| and the threshold.  The threshold is fixed in
    advance, about 1e7 below the smallest genuine distance, so the split
    does not depend on the LAPACK build or on the rest of the spectrum.
    """
    b = abs(op.b)
    return band_distance(eigenvalues, 2.0 * b) > ISOLATION_THRESHOLD * b


def detM_eigentest(params: CFParams, lambda_hat: complex) -> complex:
    """Determinant test for point-spectrum membership at lam = i a lambda_hat.

    Backward recurrence from a far tail seeded with the decaying
    characteristic rate builds the minimal (square-summable) solution of
    each decoupled half-recurrence; the two are normalized and substituted
    into the coupling constraints.  det M = 0 exactly at eigenvalues.
    Kept as the independent oracle for continued-fraction roots: its
    recurrence shares no code with contfrac's kernel.  Like the full-chain
    solvers it refuses every member of a class with a member on the circle
    |k| = |p|, where rho vanishes and the chain splits.
    """
    params.check_full_chain()
    lam_hat = complex(lambda_hat)
    lam_b = lam_hat / params.rho_inf  # lam/(i b)
    w = _small_root(lam_b)  # raises on the essential band
    r = w * w  # Poincare-Perron decay ratio of both half-recurrences
    n_tail = max(64, int(np.ceil(np.log(1e-14) / np.log(max(abs(r), 1e-12)))) + 16)

    def backward(chain_rho, n_stop: int) -> list[complex]:
        """Run u_{n-1} = (lam_hat u_n - rho(n+1) u_{n+1}) / rho(n-1) from
        the seed (1, r) at the tail down to n_stop and return u at n_stop,
        n_stop + 1 and n_stop + 2; renormalize on overflow (only ratios
        matter until the final normalization)."""
        u_after, u_next, u_cur = None, complex(r), 1.0 + 0.0j
        for n in range(n_tail, n_stop, -1):
            u_prev = (lam_hat * u_cur - chain_rho(n + 1) * u_next) / chain_rho(n - 1)
            if not np.isfinite(u_prev):
                raise NumericalError(f"backward recurrence overflowed at n = {n}")
            u_after, u_next, u_cur = u_next, u_cur, u_prev
            scale = abs(u_cur)
            if scale > 1e200:
                u_after, u_next, u_cur = u_after / scale, u_next / scale, u_cur / scale
        return [u_cur, u_next, u_after]

    rho_n = functools.partial(rho, params.khat, params.p)
    # even chain u_n = z_{2n}: coefficients rho(n); need z_2 = u_1, z_4 = u_2
    u1, u2, _ = backward(rho_n, 1)
    # odd chain v_n = z_{2n+1}: coefficients rho(-n); need z_1 = v_0, z_3 = v_1
    v0, v1, _ = backward(lambda n: rho_n(-n), 0)

    z2, z4 = u1, u2
    z1, z3 = v0, v1
    s_even = max(abs(z2), abs(z4))
    s_odd = max(abs(z1), abs(z3))
    if s_even == 0.0 or s_odd == 0.0:
        raise NumericalError("degenerate minimal solution in det M test")
    M = np.array(
        [
            [rho_n(1) * z2 / s_even, -lam_hat * z1 / s_odd + rho_n(-1) * z3 / s_odd],
            [-lam_hat * z2 / s_even + rho_n(2) * z4 / s_even, rho_n(0) * z1 / s_odd],
        ],
        dtype=complex,
    )
    return complex(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
