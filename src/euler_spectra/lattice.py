"""Integer-lattice geometry underlying the mode-coupling analysis.

A pump mode p partitions the nonzero lattice into classes
Sigma = {khat + n*p : n in Z} \\ {0}.  This module provides the triad
interaction coefficient, the rho coefficient sequence attached to a class,
canonical class labels, and the disk predicates used by the stability
classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

__all__ = [
    "WaveVector",
    "ClassLabel",
    "RhoSequence",
    "triad_coeff",
    "rho",
    "canonical_label",
    "circle_member",
    "kappa",
    "classes_meeting_disk",
]

DISK_CAP = 1 << 12  # |k|^2 of a class scan; the scan walks every lattice point of the disk


@dataclass(frozen=True, order=True)
class WaveVector:
    """Lattice point k = (k1, k2); the origin is excluded wherever a
    WaveVector is used as a mode index."""

    k1: int
    k2: int

    def __add__(self, other: "WaveVector") -> "WaveVector":
        return WaveVector(self.k1 + other.k1, self.k2 + other.k2)

    def __neg__(self) -> "WaveVector":
        return WaveVector(-self.k1, -self.k2)

    def __sub__(self, other: "WaveVector") -> "WaveVector":
        return WaveVector(self.k1 - other.k1, self.k2 - other.k2)

    def plus(self, n: int, p: "WaveVector") -> "WaveVector":
        """k + n*p."""
        return WaveVector(self.k1 + n * p.k1, self.k2 + n * p.k2)

    @property
    def norm2(self) -> int:
        return self.k1 * self.k1 + self.k2 * self.k2

    @property
    def is_zero(self) -> bool:
        return self.k1 == 0 and self.k2 == 0

    def dot(self, other: "WaveVector") -> int:
        return self.k1 * other.k1 + self.k2 * other.k2

    def as_tuple(self) -> tuple[int, int]:
        return (self.k1, self.k2)


def det(p: WaveVector, q: WaveVector) -> int:
    """Determinant |p q| = p1*q2 - p2*q1."""
    return p.k1 * q.k2 - p.k2 * q.k1


def parallel(p: WaveVector, q: WaveVector) -> bool:
    return det(p, q) == 0


def triad_coeff(p: WaveVector, q: WaveVector) -> float:
    """Symmetrized interaction coefficient of the mode triad (p, q, p+q):

        A(p, q) = 1/2 * (|q|^-2 - |p|^-2) * (p1*q2 - p2*q1)

    Symmetric in (p, q); vanishes when |p| = |q| or p is parallel to q.
    """
    if p.is_zero or q.is_zero:
        raise UsageError(f"triad_coeff needs nonzero vectors, got p={p}, q={q}")
    return 0.5 * (1.0 / q.norm2 - 1.0 / p.norm2) * det(p, q)


def rho(khat: WaveVector, p: WaveVector, n):
    """rho_n = |khat + n p|^-2 - |p|^-2 for the class member khat + n p.

    n is an int or an integer array (then rho is taken elementwise, as an
    array of n's shape); a member at the origin raises UsageError either
    way.  Each index becomes a Python int first, so the member norms are
    exact however far the member lies.
    """
    n = np.asarray(n)
    ns = n.ravel().tolist()
    norm2 = [(khat.k1 + m * p.k1) ** 2 + (khat.k2 + m * p.k2) ** 2 for m in ns]
    if 0 in norm2:
        raise UsageError(f"khat + n p = 0 at n={ns[norm2.index(0)]}; the origin carries no mode")
    inv_p = 1.0 / p.norm2
    values = [1.0 / k - inv_p for k in norm2]
    return np.reshape(values, n.shape) if n.ndim else values[0]


@dataclass(frozen=True)
class ClassLabel:
    """Canonical label of one class: khat is the member of minimal |khat|^2,
    ties resolved to the lexicographically greatest (k1, k2) so that e.g.
    (1,0) beats (0,-1).  Parallel classes (khat || p) have trivially zero
    dynamics and carry an explicit flag."""

    khat: WaveVector
    p: WaveVector
    parallel: bool

    def member(self, n: int) -> WaveVector:
        return self.khat.plus(n, p=self.p)


@dataclass(eq=False)
class RhoSequence:
    """rho_n of one non-parallel class, held as one float array over
    n = -R..R (rho_n at values[n + R]).  An index past R grows R to
    max(|n|, 2R), and one rho call fills each growth, so a sweep indexes
    the array with no call per index.  perfbench reports len(values),
    2R + 1, as the span of indices contfrac reached."""

    khat: WaveVector
    p: WaveVector
    values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def take(self, n):
        """rho at the index or index array n, read from the array."""
        n = np.asarray(n)
        radius = len(self.values) // 2
        reach = int(np.abs(n).max(initial=0))
        if 2 * reach >= len(self.values):
            radius = max(reach, 2 * radius)
            self.values = rho(self.khat, self.p, np.arange(-radius, radius + 1))
        return self.values[n + radius]

    def value(self, n: int) -> float:
        return float(self.take(n))


def _near_members(k: WaveVector, p: WaveVector) -> list[WaveVector]:
    """The members k + n p with n within 2 of floor(n* + 1/2), n* =
    -k.p / |p|^2 the real minimizer of the strictly convex |k + n p|^2,
    rounded in exact integers.  They hold the members of minimal norm (at
    floor/ceil of n*, or next to the origin when that is the nearest site)
    and every member with |k + n p| <= |p| (|n - n*| <= 1)."""
    n_star = (p.norm2 - 2 * k.dot(p)) // (2 * p.norm2)
    return [k.plus(n, p) for n in range(n_star - 2, n_star + 3)]


def _min_norm_members(k: WaveVector, p: WaveVector) -> list[WaveVector]:
    """Members of k's class attaining the minimal squared norm."""
    candidates = [c for c in _near_members(k, p) if not c.is_zero]
    best = min(c.norm2 for c in candidates)
    return sorted(c for c in candidates if c.norm2 == best)


def circle_member(k: WaveVector, p: WaveVector) -> WaveVector | None:
    """The member of k's class on the circle |k| = |p|, if any.  A
    non-parallel class has at most one (two would make an equilateral
    lattice triangle with p)."""
    return next((c for c in _near_members(k, p) if c.norm2 == p.norm2), None)


def kappa(khat: WaveVector, p: WaveVector, side: int = 0) -> int:
    """Number of members strictly inside the disk |k| < |p| (rho_n > 0) of
    the chain of khat's class: the whole class for side 0, and for side +1
    or -1, khat then being the class's circle member, the members
    khat + n p with n * side > 0.  The origin, a member only of a parallel
    class, does not count."""
    inside = (c for c in _near_members(khat, p) if 0 < c.norm2 < p.norm2)
    # n * side > 0 for the member khat + n p exactly when (c - khat).p * side > 0
    return sum(1 for c in inside if side == 0 or side * (c - khat).dot(p) > 0)


def canonical_label(k: WaveVector, p: WaveVector) -> ClassLabel:
    """Label of the unique class containing k.

    Idempotent along the class: canonical_label(khat + n p, p) gives the
    same label for every valid n.
    """
    if k.is_zero or p.is_zero:
        raise UsageError("canonical_label needs nonzero k and p")
    khat = _min_norm_members(k, p)[-1]
    return ClassLabel(khat=khat, p=p, parallel=parallel(k, p))


def lattice_points_in_disk(radius2: int) -> list[WaveVector]:
    """Nonzero lattice points with |k|^2 <= radius2, in sorted order."""
    out = []
    r = int(radius2**0.5) + 1
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            if (k1, k2) != (0, 0) and k1 * k1 + k2 * k2 <= radius2:
                out.append(WaveVector(k1, k2))
    return sorted(out)


def classes_meeting_disk(p: WaveVector, radius2: int) -> list[ClassLabel]:
    """Every distinct class with a member in the closed disk
    {k : |k|^2 <= radius2}, by canonical label, sorted by (|khat|^2, khat).

    A class meets the disk if and only if its canonical khat (a member of
    minimal norm) lies in it.  radius2 = |p|^2 gives the disk of the
    stability theorems.  Parallel classes are included but arrive flagged.
    """
    if p.is_zero:
        raise UsageError("p must be nonzero")
    if radius2 > DISK_CAP:
        raise UsageError(f"disk is capped at |k|^2 <= DISK_CAP = {DISK_CAP}, got {radius2}")
    seen: dict[tuple[int, int], ClassLabel] = {}
    for k in lattice_points_in_disk(radius2):
        label = canonical_label(k, p)
        seen.setdefault(label.khat.as_tuple(), label)
    return [seen[key] for key in sorted(seen, key=lambda t: (WaveVector(*t).norm2, t))]
