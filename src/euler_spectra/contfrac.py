"""Point spectrum of one chain via continued fractions.

Separating time out of the chain equation leaves the three-term recurrence

    a_n z_n + z_{n-1} - z_{n+1} = 0,      a_n = lambda / (a * rho_n),

whose square-summable solutions exist exactly when the two continued
fractions built from the upper and lower tails match at n = 1.  Away from
the essential band the tail coefficients approach the constant
a_tilde = -lambda |p|^2 / a, so both fractions converge (Van Vleck /
Sleszynski-Pringsheim regimes) and can be truncated with the exact
constant-coefficient tail value as seed.  Zeros of the matching function

    f(lambda_tilde) = a_0 + K(lower tail) + K(upper tail)

are the point-spectrum values, reported as symmetry quadruples
{+-lambda_tilde, +-conj(lambda_tilde)}.

Every tail fraction, of the full chain and of the two half-chains of a
class with a member on |k| = |p|, is one backward recurrence (minimal
solutions: Gautschi, SIAM Rev. 9 (1967) 24), written once in _sweep,
which also carries the derivative that the Newton search steps with.
Each tail at each truncation depth is one row of a sweep: a Newton step
runs both tails at its first two depths, 64 and 128, as rows of one
sweep (see _match and _deepen).  rho_n is read from one array per class
(lattice.RhoSequence), and the division by rho_n is a real multiply by a
table of 1/rho_n, which gives the same bits as numpy's complex division
(see _sweep).

All search-facing entry points work in the scale-free variable
lambda_tilde = lambda / a, which is invariant under rescaling |Gamma|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .lattice import RhoSequence, WaveVector, canonical_label, circle_member, det, kappa, rho

__all__ = [
    "CFParams",
    "EigenQuadruple",
    "a_n",
    "band_distance",
    "f_eigen",
    "find_eigenvalues",
    "find_eigenvalues_half",
    "eigenvector_window",
    "mode_amplitudes",
]

BAND_TUBE = 1e-3  # exclusion radius around the essential band segment
# smallest root tolerance: |f| at a computed root carries rounding error,
# up to 5e-16 over the 2668 roots of a scan of ten pumps
ROOT_TOL_FLOOR = 1e-14
GRID_CAP = 256  # seeds per box side; the search holds grid^2 seeds at once
_MAX_DEPTH = 1 << 17
# relative accuracy of f that a Newton step of the root search asks for
_DEPTH_REL_TOL = 1e-2
# absolute accuracy to which eigenvector_window settles each tail value
_WINDOW_TOL = 1e-13


@dataclass
class CFParams:
    """Chain data entering the recurrence: class (khat, p), the pump
    amplitude Gamma, the real scale a = |Gamma| (p1 khat2 - p2 khat1) / 2,
    the class's member on the circle |k| = |p| (None when it has none) and
    the class's rho array (RhoSequence).

    rho_n vanishes only at the circle member, where the chain splits into
    two half-chains; the full-chain solvers refuse every member of such a
    class, and the half-chain solver counts from the circle member whichever
    member it is given.
    """

    khat: WaveVector
    p: WaveVector
    gamma: complex
    a: float
    circle: WaveVector | None
    rho_seq: RhoSequence

    @classmethod
    def for_class(cls, khat: WaveVector, p: WaveVector, gamma: complex) -> "CFParams":
        """Raises UsageError where a = 0 (a zero gamma or a class parallel
        to p): the operator is zero and carries no spectral data; and where
        4|a|, which bounds the band width and every section eigenvalue,
        overflows."""
        if gamma == 0:
            raise UsageError("gamma is zero: the operator is zero, no spectral data; give a nonzero gamma")
        if khat.is_zero or p.is_zero:
            raise UsageError("khat and p must be nonzero")
        try:
            a = 0.5 * abs(gamma) * det(p, khat)
        except OverflowError:  # |gamma| itself overflows, though gamma is finite
            a = np.inf
        if a == 0.0:
            raise UsageError("khat is parallel to p: trivial class, no spectral data")
        if not np.isfinite(4.0 * abs(a)):
            raise UsageError("gamma is too large: 4|a| overflows the spectrum of this class; give a smaller gamma")
        return cls(khat, p, gamma, a, circle_member(khat, p), RhoSequence(khat, p))

    @property
    def rho_inf(self) -> float:
        """The |n| -> infinity limit of rho_n: -1/|p|^2."""
        return -1.0 / self.p.norm2

    def check_full_chain(self) -> None:
        """Raise UsageError for every member of a class with a member on
        the circle, where rho vanishes: its chain is two half-chains, not
        one full chain, and the half-chain solver takes it."""
        if self.circle is not None:
            raise UsageError(
                f"the class has the member {self.circle.as_tuple()} on the circle |k| = |p|, where rho "
                "vanishes and the chain splits; use the half-chain solver from that member"
            )

    def minimal(self) -> "CFParams":
        """These params counted from the class's member of minimal norm
        (lattice.canonical_label), or self when no member lies strictly
        closer to the origin: ties keep the member given."""
        khat = canonical_label(self.khat, self.p).khat
        return CFParams.for_class(khat, self.p, self.gamma) if self.khat.norm2 > khat.norm2 else self

    def band_halfwidth_tilde(self) -> float:
        """Half-length of the essential band segment on the imaginary axis
        of the lambda_tilde plane: 2 / |p|^2."""
        return 2.0 / self.p.norm2


@dataclass(frozen=True)
class EigenQuadruple:
    """One symmetry orbit of the point spectrum in the lambda_tilde plane.

    lambda_tilde is the representative with Re >= 0, Im >= 0; members hold
    the deduplicated orbit {+-lt, +-conj(lt)}; residual is |f| at the
    representative.
    """

    lambda_tilde: complex
    members: tuple[complex, ...]
    residual: float


def band_distance(z, half):
    """Elementwise distance from z to the segment i*[-half, half]."""
    return np.abs(z - 1j * np.clip(np.imag(z), -half, half))


def a_n(params: CFParams, lam: complex, n: int) -> complex:
    """Recurrence coefficient a_n = lambda / (a * rho_n).

    Kept public as a test oracle: _sweep inlines it as lt times a table
    of 1/rho_n, and the tests check reconstructed eigenvectors against the
    recurrence written with it.
    """
    r = params.rho_seq.value(n)
    if r == 0.0:
        raise UsageError(
            f"rho_{n} = 0 (member on the circle |k| = |p|); use the half-chain solver"
        )
    return lam / (params.a * r)


def _w_plus(a_t):
    """Elementwise large root of w^2 - a_tilde w - 1 = 0 off the band: the
    sign of the square root is chosen so that |w_plus| > 1."""
    s = np.sqrt(a_t * a_t + 4.0)
    delta = np.where(a_t.real != 0.0, np.sign(a_t.real) * np.sign(s.real), np.sign(a_t.imag))
    return 0.5 * (a_t + delta * s)


# ---------------------------------------------------------------------------
# the recurrence kernel


def _seed(params: CFParams, lt):
    """The constant-coefficient tail value w_plus(a_tilde), a_tilde =
    -lt |p|^2, and its lt-derivative: the far-end start of every sweep."""
    a_t = -lt * params.p.norm2
    u = _w_plus(a_t)
    return u, u * -params.p.norm2 / (2.0 * u - a_t)


def _sweep(params: CFParams, lt, ns, start, trail: list | None = None):
    """Backward recurrence u <- lt/rho_n + 1/u over the indices ns, far end
    first, from start = (u, du), carrying du/dlt; returns (u, du).  Every
    tail fraction is this one recurrence: the lower tail runs over
    n = -depth..0; the upper tail over n = depth..1 in the variable
    u = -1/w, so its ratio is -1/u.

    lt is a 1-D complex array.  ns holds indices, or index rows (shape
    (len, rows)) run side by side from the same lt; start then has shape
    (rows, len(lt)).  A trail list gets a copy of u after each index.

    rho_n is indexed from the class's array, and lt/rho_n is a real
    multiply of lt's float view by 1/rho_n: numpy's complex division by
    rho_n + 0j (Smith's formula, R. L. Smith, CACM 5 (1962) 435) gives the
    same number, but for the sign of an exact zero.  The du update reads
    1/rho_n from a complex table and 1/u is divide(ones, u), the loops
    numpy runs for a float or scalar operand, and each step writes into
    buffers made once per sweep: the bits are those of
    u, du = lt/rho_n + 1/u, 1/rho_n - du/(u*u).  A rho_n of exactly 0
    raises NumericalError.
    """
    idx = np.asarray(ns, dtype=np.int64)
    rho = params.rho_seq.take(idx)
    if not rho.all():
        n = int(idx[rho == 0][0])
        raise NumericalError(
            f"rho_{n} = 0 in floating point at the member {params.khat.plus(n, params.p).as_tuple()}, off "
            "the circle |k| = |p|: the continued fraction has a zero denominator there"
        )
    inv = (1.0 / rho)[..., None]
    flat = lt.view(float)
    shape = (*idx.shape[1:], lt.size)
    u, du = (np.array(np.broadcast_to(s, shape)) for s in start)
    ones, uu, lt_rho = np.ones(shape, complex), np.empty(shape, complex), np.empty(shape, complex)
    lt_rho_f = lt_rho.view(float)
    mul, div, add, sub = np.multiply, np.divide, np.add, np.subtract
    for inv_n, cinv_n in zip(inv, inv.astype(complex)):
        # du <- 1/rho_n - du/(u*u) from the old u, then u <- lt/rho_n + 1/u
        mul(u, u, uu)
        sub(cinv_n, div(du, uu, du), du)
        mul(flat, inv_n, lt_rho_f)
        add(lt_rho, div(ones, u, u), u)
        if trail is not None:
            trail.append(u.copy())
    return u, du


def _match(params: CFParams, lt, side: int, depth):
    """Matching function at a fixed truncation depth and its lt-derivative.

        side  0:  f = K(-depth..0) + 1/K(depth..1)   (full chain)
        side +1:  f = K(depth..1)                    (half-chain n >= 1)
        side -1:  f = K(-depth..-1)                  (half-chain n <= -1)

    Points on the essential band come back NaN.

    depth may also be an increasing tuple, giving a list of one (f, df)
    per depth from one sweep.  Each tail at each depth is one row: the
    deepest rows start alone, the rows of each shallower depth join them,
    freshly seeded, at their own far end, and the full chain's (0,) step
    and the band mask run once.  No row reads another, so each depth gets
    the bits of a call of its own.
    """
    depths = (depth,) if np.ndim(depth) == 0 else tuple(depth)
    flat = np.ascontiguousarray(lt, dtype=complex).reshape(-1)
    tails = [-1, 1] if side == 0 else [side]
    u, du = (np.empty((0, flat.size), complex),) * 2
    with np.errstate(divide="ignore", invalid="ignore"):
        seed = _seed(params, flat)
        for far, near in zip(depths[::-1], (*depths[-2::-1], 0)):
            # the rows of depth `far` join here, seeded, and every row runs on to near + 1
            u, du = (np.concatenate((s, np.broadcast_to(w, (len(tails), flat.size)))) for s, w in zip((u, du), seed))
            ns = np.arange(far, near, -1)[:, None] * np.tile(tails, len(u) // len(tails))
            u, du = _sweep(params, flat, ns, (u, du))
        u, du = (s.reshape(len(depths), len(tails), -1)[::-1] for s in (u, du))
        if side:
            f, df = u[:, 0], du[:, 0]
        else:
            down, ddown = _sweep(params, flat, np.zeros((1, len(depths)), int), (u[:, 0], du[:, 0]))
            f, df = down + 1.0 / u[:, 1], ddown - du[:, 1] / (u[:, 1] * u[:, 1])
    off = band_distance(flat, params.band_halfwidth_tilde()) > 0
    f, df = (np.where(off, s, np.nan).reshape(-1, *np.shape(lt)) for s in (f, df))
    pairs = list(zip(f, df))
    return pairs if np.ndim(depth) else pairs[0]


def _deepen(evaluate, count: int, tol: float, rel: float = 0.0):
    """Give each of `count` points its own truncation depth.

    evaluate(idx, depths) returns, for each depth of the tuple depths, a
    tuple of arrays whose first axis runs over the points idx; the first
    array is the one that must converge.  Each point starts at depth 64 and
    doubles on its own until that value moves by less than
    max(tol, rel * |value|) from depth d to 2d (the largest entry of a
    point's row counts), and then settles at 2d with every array taken
    there.  The first call asks for depths 64 and 128 at once; after that,
    the points still moving share one evaluate call per depth.  A point
    whose two values are not both finite settles as it is; one still
    moving past _MAX_DEPTH comes back NaN.  Returns (depths, *arrays).
    """

    def rowmax(x):
        return np.abs(x).reshape(len(x), -1).max(axis=1)

    idx = np.arange(count)
    depth = 64
    prev, ahead = evaluate(idx, (depth, 2 * depth))
    out = [np.array(a, dtype=complex) for a in prev]
    depths = np.full(count, depth)
    while len(idx) and depth <= _MAX_DEPTH:
        depth *= 2
        cur = evaluate(idx, (depth,))[0] if ahead is None else ahead
        ahead = None
        with np.errstate(invalid="ignore"):
            gap = rowmax(cur[0] - prev[0])
            moving = np.isfinite(gap) & (gap >= np.maximum(tol, rel * rowmax(cur[0])))
        done = idx[~moving]
        depths[done] = depth
        for a, c in zip(out, cur):
            a[done] = c[~moving]
        idx = idx[moving]
        prev = tuple(c[moving] for c in cur)
    depths[idx] = depth
    out[0][idx] = np.nan
    return (depths, *out)


def _settled_value(evaluate, tol: float):
    """evaluate(depth) at one point, taken as one row of values and deepened
    by _deepen until it settles; raises NumericalError unless it is finite."""
    value = _deepen(lambda idx, depths: [(np.reshape(evaluate(d), (1, -1)),) for d in depths], 1, tol)[1][0]
    if not np.all(np.isfinite(value)):
        raise NumericalError("continued fraction did not converge to a finite value")
    return value


def _check_point(params: CFParams, lambda_tilde: complex) -> None:
    if band_distance(lambda_tilde, params.band_halfwidth_tilde()) == 0:
        raise NumericalError(f"lambda_tilde = {lambda_tilde} lies on the essential band")


def f_eigen(params: CFParams, lambda_tilde: complex, tol: float = 1e-13) -> complex:
    """Matching function whose zeros are the point-spectrum values:

        f = a_0 + [lower-tail fraction] + [upper-tail fraction]

    evaluated at lambda = a * lambda_tilde; defined off the essential band
    only.  Kept public as a test oracle: the search steps with _match at
    fixed depths, and the tests hold its roots to this settled value.
    """
    params.check_full_chain()
    _check_point(params, lambda_tilde)
    return complex(_settled_value(lambda d: _match(params, lambda_tilde, 0, d)[0], tol)[0])


# ---------------------------------------------------------------------------
# Newton search


def _quadruple_members(lt: complex) -> tuple[complex, ...]:
    # lt is a folded representative, each part exactly 0 or above the snap
    # width, so members that coincide are exactly equal (0.0 == -0.0)
    orbit = dict.fromkeys([lt, -lt, lt.conjugate(), -lt.conjugate()])
    return tuple(sorted(orbit, key=lambda z: (-z.real, -z.imag)))


def _search(
    params: CFParams, side: int, search_box: tuple[float, float, float, float], grid: int, tol: float
) -> list[EigenQuadruple]:
    """Newton search for zeros of the matching function of `side` (see
    _match) from a grid x grid seed lattice over the box.

    Each iterate gets its own truncation depth at every Newton step
    (_deepen): f must settle to max(dtol, _DEPTH_REL_TOL * |f|), which only
    next to a root tightens to the absolute dtol.  A step far from a root
    needs only a few correct digits of f (inexact Newton: Dembo, Eisenstat
    & Steihaug, SIAM J. Numer. Anal. 19 (1982) 400), and only iterates near
    the essential band need deep tails.

    Every finite iterate is a candidate root, taken in order of
    (|z|, re, im) and reported by its representative: a part within
    10 tol of an axis is set to zero, so that a root on an axis is
    reported there and not as rounding noise off it, and the orbit
    {+-z, +-conj z} is folded into the closed first quadrant as
    (|re|, |im|).  A candidate whose representative lies within 10 tol of
    an earlier root is a duplicate.  Any other candidate is kept exactly
    when its residual, |f| at the representative at twice the depth the
    point last settled at, is below tol.  Both radii must stay inside the
    band tube, so tol must be below BAND_TUBE / 10 = 1e-4: a larger
    radius can snap a root onto the band, where it is dropped (the golden
    root (0.248, 0.352) at tol = 0.03).  Below ROOT_TOL_FLOOR = 1e-14 no
    residual can be trusted to meet tol, since |f| at a root carries
    rounding error of a few 1e-16 (at 3e-17 the golden root is missed).
    A tol outside [ROOT_TOL_FLOOR, BAND_TUBE / 10) raises UsageError.

    A chain with no member inside the disk (kappa 0) has no root at all
    (see find_eigenvalues); once the arguments pass their checks, it gets
    [] without a sweep.
    """
    if grid < 1:
        raise UsageError(f"grid must be a positive integer, got {grid}")
    if grid > GRID_CAP:
        raise UsageError(f"grid is capped at GRID_CAP = {GRID_CAP}, got {grid}")
    if not (ROOT_TOL_FLOOR <= tol and 10.0 * tol < BAND_TUBE):
        raise UsageError(
            f"root tolerance {tol!r} must be at least ROOT_TOL_FLOOR = {ROOT_TOL_FLOOR:g}, above the rounding "
            f"error of f, and below BAND_TUBE / 10 = {BAND_TUBE / 10:g}, since roots within 10 times the "
            "tolerance of an axis or of each other are merged; give a tolerance in that range"
        )
    re_min, re_max, im_min, im_max = search_box
    if re_max <= re_min or im_max <= im_min:
        raise UsageError("degenerate search box")
    if kappa(params.khat, params.p, side) == 0:
        return []

    res = np.linspace(re_min, re_max, grid)
    ims = np.linspace(im_min, im_max, grid)
    lt = (res[:, None] + 1j * ims[None, :]).ravel()
    depths = np.zeros(len(lt), dtype=int)
    dtol = min(tol * 1e-2, 1e-13)

    active = np.ones(len(lt), dtype=bool)
    bound = 4.0 * (abs(re_max) + abs(im_max) + 1.0)
    for _ in range(60):
        if not active.any():
            break
        cur = lt[active]
        depth, f, df = _deepen(
            lambda idx, ds: _match(params, cur[idx], side, ds), len(cur), dtol, _DEPTH_REL_TOL
        )
        depths[active] = depth
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        nxt = cur - step
        bad = (
            ~np.isfinite(nxt)
            | (np.abs(nxt) > bound)
            | (band_distance(nxt, params.band_halfwidth_tilde()) < BAND_TUBE)
        )
        conv = np.abs(step) < 1e-14 * (1.0 + np.abs(nxt))
        nxt[bad] = np.nan
        lt[active] = nxt
        active[active] = ~(bad | conv)

    finite = np.isfinite(lt)
    roots = sorted(zip(lt[finite], 2 * depths[finite]), key=lambda r: (abs(r[0]), r[0].real, r[0].imag))

    eps = 10.0 * tol
    quads: list[EigenQuadruple] = []
    for z, depth in roots:
        rep = complex(*(0.0 if abs(x) <= eps else abs(x) for x in (z.real, z.imag)))
        if any(abs(rep - q.lambda_tilde) < eps for q in quads):
            continue
        residual = abs(_match(params, np.array([rep]), side, int(depth))[0][0])
        if residual < tol:
            quads.append(EigenQuadruple(lambda_tilde=rep, members=_quadruple_members(rep), residual=float(residual)))
    quads.sort(key=lambda q: (abs(q.lambda_tilde), q.lambda_tilde.real, q.lambda_tilde.imag))
    return quads


def find_eigenvalues(
    params: CFParams,
    search_box: tuple[float, float, float, float] = (BAND_TUBE, 4.0, BAND_TUBE, 4.0),
    grid: int = 20,
    tol: float = 1e-12,
) -> list[EigenQuadruple]:
    """Newton search for zeros of f over a seed grid in the lambda_tilde
    plane, returning deduplicated symmetry quadruples sorted by modulus.

    The box (re_min, re_max, im_min, im_max) should avoid the exclusion
    tube around the essential band; iterates that wander into the tube or
    diverge are dropped.  Every returned root satisfies |f| < tol.

    A class with no member inside the disk |k| < |p| (lattice.kappa 0) has
    no spectrum off the band, so it gets [] without a Newton step: with
    every rho_n in (-1/|p|^2, 0), the chain operator (det/2) T diag(rho)
    (T skew-adjoint, |T| <= 2|gamma|) is similar through |diag(rho)|^(1/2)
    to a skew-adjoint operator of norm <= 2|a|/|p|^2, the band's half-width.

    The roots belong to the class, but seeds counted from a far member can
    miss them (p=2,1: khat=-6,-2 finds none at grid 8, its minimal member
    0,1 finds one), so a member strictly farther out than the minimal one
    is searched from the minimal member.
    """
    params.check_full_chain()
    return _search(params.minimal(), 0, search_box, grid, tol)


def find_eigenvalues_half(
    params: CFParams,
    side: int,
    search_box: tuple[float, float, float, float] = (BAND_TUBE, 4.0, BAND_TUBE, 4.0),
    grid: int = 20,
    tol: float = 1e-12,
) -> list[EigenQuadruple]:
    """Root search for one half-chain matching function of a class with a
    member on |k| = |p|, side +1 (n >= 1) or -1 (n <= -1) counted from that
    member whichever member params holds; same seeds, Newton iteration,
    drops and quadruple reporting as the full-chain search, and the same
    [] without a Newton step for a side with no member inside the disk."""
    if side not in (+1, -1):
        raise UsageError("side must be +1 or -1")
    if params.circle is None:
        raise UsageError("the half-chain solver needs a class with a member on |k| = |p|")
    if params.khat != params.circle:
        params = CFParams.for_class(params.circle, params.p, params.gamma)
    return _search(params, side, search_box, grid, tol)


# ---------------------------------------------------------------------------
# eigenvector reconstruction


def eigenvector_window(params: CFParams, lambda_tilde: complex, n_min: int, n_max: int) -> np.ndarray:
    """Recurrence solution z_n over [n_min, n_max] built from the tail
    ratios, normalized to z_0 = 1; each tail value is deepened until it
    settles to within _WINDOW_TOL.

    Below the matching index the ratios come from the lower-tail fraction,
    above it from the upper one; at a true root of f the two agree and the
    assembled z solves a_n z_n + z_{n-1} - z_{n+1} = 0 on the whole window,
    decaying in both directions.  Kept public as a test oracle: the tests
    check that recurrence on z, before mode_amplitudes rescales it.
    """
    if n_min > 0 or n_max < 1:
        raise UsageError("window must contain the matching indices 0 and 1")
    params.check_full_chain()
    _check_point(params, lambda_tilde)
    lt = np.array([lambda_tilde], dtype=complex)

    def kernel_values(window: range) -> np.ndarray:
        # K(..n) for each n of the window: one sweep runs over the tail
        # beyond the window edge, deepened until every value has converged,
        # and on across the window, keeping u after each index there
        def evaluate(depth):
            edge, step = window[0], window.step
            trail: list = []
            _sweep(params, lt, range(edge - step * depth, window[-1] + step, step), _seed(params, lt), trail)
            return np.array(trail[-len(window) :])

        return _settled_value(evaluate, _WINDOW_TOL)

    lower = kernel_values(range(n_min, 1))  # z_{m+1}/z_m, m = n_min..0
    upper = -1.0 / kernel_values(range(n_max, 0, -1))  # z_n/z_{n-1}, n = n_max..1
    # z_1/z_0 is the lower tail's w_1; the upper one at n = 1 goes unused
    right = np.cumprod(np.concatenate([lower[-1:], upper[-2::-1]]))  # z_1..z_{n_max}
    left = 1.0 / np.cumprod(lower[-2::-1])  # z_{-1}..z_{n_min}
    return np.concatenate([left[::-1], [1.0 + 0.0j], right])


def mode_amplitudes(params: CFParams, lambda_tilde: complex, n_min: int, n_max: int) -> np.ndarray:
    """Eigenmode amplitudes w_n of the physical chain over the window,
    unwinding the z_n = rho_n e^{i n (theta + pi/2)} w_n substitution
    (theta = pi/2 - arg Gamma)."""
    z = eigenvector_window(params, lambda_tilde, n_min, n_max)
    theta = 0.5 * np.pi - np.angle(params.gamma)
    ns = np.arange(n_min, n_max + 1)
    return z / (rho(params.khat, params.p, ns) * np.exp(1j * ns * (theta + 0.5 * np.pi)))
