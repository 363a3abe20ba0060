"""Galerkin-truncated nonlinear vorticity dynamics in Fourier modes.

The quadratic system

    d/dt w_k = sum over unordered pairs {p, q}, p + q = k, of A(p, q) w_p w_q

is restricted to triads lying wholly inside a negation-closed mode set, so
kinetic energy E = 1/2 sum |k|^-2 |w_k|^2 and enstrophy J = sum |w_k|^2 are
conserved exactly by the truncation.  Reality (w_{-k} = conj w_k) is
enforced structurally: only one representative per +-k pair is stored.

The sum is evaluated as one dealiased transform product (Orszag,
J. Atmos. Sci. 28 (1971) 1074): with psi = sum |k|^-2 w_k e^{ik.x},
the right-hand side at k is -1/2 times the Fourier coefficient of
f_x psi_y - f_y psi_x, taken exactly on 3K + 1 points per axis when every
mode has |k_1|, |k_2| <= K.  The half-spectrum grid holds two layers, f
and psi; the derivatives i k_1 and i k_2 sit in the synthesis matrices,
and since the fields are real, the x-synthesis and the x-analysis are real
products on the float view of the complex arrays (ModeSet.transform).
The grid and product buffers are made once per integration or Jacobian
check (_rhs_workspace), never per call nor per ModeSet; a call writes into
its caller's buffer, or returns a new array.  lattice.triad_coeff stays
the pairwise oracle the tests and the Jacobian check compare with.

The single-pump steady states w*_{+-p} = Gamma / conj(Gamma) are fixed
points; a Jacobian check against the two-diagonal linearized coupling,
exact since the right-hand side is a quadratic form, ties this module to
the per-class chain dynamics.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .lattice import WaveVector, lattice_points_in_disk, triad_coeff
from .subsystem import _rel_drift, _rk4, _rk4_increment

__all__ = [
    "ModeSet",
    "VorticityField",
    "euler_rhs",
    "fixed_point",
    "conserved",
    "jacobian_check",
    "integrate_euler",
]

CUTOFF_CAP = 64  # about pi * 64^2 = 12.9k modes; the transform grid grows like cutoff^2


def _is_representative(k: WaveVector) -> bool:
    return k.k1 > 0 or (k.k1 == 0 and k.k2 > 0)


@dataclass(frozen=True)
class ModeSet:
    """Nonzero lattice modes with |k| <= cutoff, closed under k -> -k.

    The index, the representatives, the embedding and the transform
    tables are derived once per instance, on first use.
    """

    cutoff: float
    modes: tuple[WaveVector, ...]

    @classmethod
    def disk(cls, cutoff: float) -> "ModeSet":
        if cutoff < 1.0:
            raise UsageError("cutoff below 1 leaves no modes")
        if cutoff > CUTOFF_CAP:
            raise UsageError(f"cutoff is capped at CUTOFF_CAP = {CUTOFF_CAP}, got {cutoff}")
        # norms are integers, so |k|^2 <= cutoff^2 iff |k|^2 <= floor(cutoff^2)
        return cls(cutoff=cutoff, modes=tuple(lattice_points_in_disk(int(cutoff * cutoff))))

    def __post_init__(self):
        for k in self.modes:
            if k.is_zero or -k not in self._index:
                raise UsageError("mode set must exclude the origin and be negation-closed")

    @cached_property
    def _index(self) -> dict[WaveVector, int]:
        return {k: i for i, k in enumerate(self.modes)}

    def __contains__(self, k: WaveVector) -> bool:
        return k in self._index

    def index(self, k: WaveVector) -> int:
        return self._index[k]

    @cached_property
    def representatives(self) -> tuple[WaveVector, ...]:
        return tuple(k for k in self.modes if _is_representative(k))

    @cached_property
    def embedding(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, conj): signed mode i takes representative src[i],
        conjugated where conj[i]."""
        rep_pos = {k: i for i, k in enumerate(self.representatives)}
        src = np.array([rep_pos[k] if k in rep_pos else rep_pos[-k] for k in self.modes], dtype=int)
        conj = np.array([k not in rep_pos for k in self.modes], dtype=bool)
        return src, conj

    @cached_property
    def transform(self) -> tuple[np.ndarray, ...]:
        """(scatter, layers, sy, sx, dsx, ax, ay, gather) of the transform
        right-hand side, K = max |k_i| over the modes, M = 3K + 1 points per
        axis.  The half-spectrum grid (2K + 1, 2(K + 1)) holds two layers,
        w and psi = w / |k|^2: representative k sits in row k2 + K, at
        column k1 of each layer.  scatter holds those two flat positions and
        layers the weights (1, 1/|k|^2) per representative.

        Synthesis: sy (2M, 2K + 1) stacks the y-synthesis over the d/dy one,
        both doubled, since the real part of a half-spectrum synthesis,
        doubled, is the field of both halves.  sx and dsx (2(K + 1), M) are
        the x-synthesis and its d/dx with rows (Re, -Im) interleaved: the
        float view of a complex product times them is the real part of its
        x-synthesis.  Analysis: ax (M, 2(K + 1)) is the float view of the
        x-analysis, ay (2K + 1, M) the y-analysis with the -1/2 of the
        right-hand side folded in, and gather the flat position of each
        representative in their (2K + 1, K + 1) product.  A product of two
        modes reaches |k_i| <= 2K, and M > 3K keeps each of its aliases off
        every retained mode."""
        k1 = np.array([k.k1 for k in self.representatives], dtype=int)
        k2 = np.array([k.k2 for k in self.representatives], dtype=int)
        K = int(np.max(np.abs([k1, k2]), initial=0))
        m = 3 * K + 1
        row = k2 + K
        w_at = 2 * (K + 1) * row + k1
        scatter = np.stack([w_at, w_at + K + 1], axis=1)
        layers = np.stack([np.ones(len(k1)), 1.0 / (k1 * k1 + k2 * k2)], axis=1)
        # phases reduced mod m before scaling, so no entry loses digits to
        # a large argument
        ky, kx = np.arange(-K, K + 1), np.arange(K + 1)
        ey = np.exp(2j * np.pi * (np.outer(np.arange(m), ky) % m) / m)
        ex = np.exp(2j * np.pi * (np.outer(kx, np.arange(m)) % m) / m)

        def real_rows(e: np.ndarray) -> np.ndarray:
            return np.stack([e.real, -e.imag], axis=1).reshape(2 * (K + 1), m)

        sy = np.concatenate([2.0 * ey, 2j * ky * ey])
        sx, dsx = real_rows(ex), real_rows(1j * kx[:, None] * ex)
        ax = np.ascontiguousarray(ex.conj().T / m).view(float)
        ay = -0.5 * ey.conj().T / m
        return scatter, layers, sy, sx, dsx, ax, ay, row * (K + 1) + k1


@dataclass
class VorticityField:
    """Field over a mode set; stores one complex amplitude per
    representative (+k half), the -k partner being its conjugate."""

    modeset: ModeSet
    coeffs: np.ndarray  # aligned with modeset.representatives

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if len(self.coeffs) != len(self.modeset.representatives):
            raise UsageError("coefficient array does not match the representative count")

    @classmethod
    def zero(cls, modeset: ModeSet) -> "VorticityField":
        return cls(modeset, np.zeros(len(modeset.representatives), dtype=complex))

    @classmethod
    def from_dict(cls, modeset: ModeSet, values: dict[WaveVector, complex]) -> "VorticityField":
        fld = cls.zero(modeset)
        src, conj = modeset.embedding
        seen: dict[int, complex] = {}
        for k, v in values.items():
            if k not in modeset:
                raise UsageError(f"mode {k} outside the mode set")
            i = modeset.index(k)
            rep, stored = src[i], (np.conj(complex(v)) if conj[i] else complex(v))
            if rep in seen and abs(seen[rep] - stored) > 1e-12 * max(1.0, abs(stored)):
                raise UsageError(f"conflicting values violate w(-k) = conj(w(k)) at {k}")
            seen[rep] = stored
            fld.coeffs[rep] = stored
        return fld

    def value(self, k: WaveVector) -> complex:
        src, conj = self.modeset.embedding
        i = self.modeset.index(k)
        v = self.coeffs[src[i]]
        return complex(np.conj(v) if conj[i] else v)

    def full_vector(self) -> np.ndarray:
        """Amplitudes over all signed modes, conjugates filled in."""
        return _embed(self.modeset, self.coeffs)

    def copy(self) -> "VorticityField":
        return VorticityField(self.modeset, self.coeffs.copy())


def _embed(modeset: ModeSet, coeffs: np.ndarray) -> np.ndarray:
    """Amplitudes over all signed modes from representative amplitudes along
    the last axis of coeffs.  Rows come back C-contiguous, so a row sum
    rounds as the sum of that sample alone does."""
    src, conj = modeset.embedding
    full = np.ascontiguousarray(coeffs[..., src])
    full[..., conj] = np.conj(full[..., conj])
    return full


def _rhs_workspace(modeset: ModeSet) -> Callable[..., np.ndarray]:
    """The right-hand side on representative amplitudes, representatives
    out, as rhs(coeffs, out=None): -1/2 times the Fourier coefficient of
    f_x psi_y - f_y psi_x, the product taken on the dealiased grid of
    ModeSet.transform, written into out or, when out is None, a new array.

    The grid and product buffers are made here, once per workspace, and
    every ufunc of a call writes into them; two workspaces share no
    buffer.  Each call writes every scatter cell of the grid and no other,
    so the rest stays 0.  The scale is undone by two complex divisions:
    one multiply would keep a -0 real part that the division makes +0."""
    scatter, layers, sy, sx, dsx, ax, ay, gather = modeset.transform
    m, n = sx.shape[1], len(gather)
    grid = np.zeros((sy.shape[1], sx.shape[0]), dtype=complex)
    synth = np.empty((sy.shape[0], sx.shape[0]), dtype=complex)
    # the float view of the y-synthesis as (plain or d/dy, layer, y, x): times
    # dsx and sx, it gives w_x, psi_x, w_y and psi_y as contiguous (m, m) arrays
    ys = synth.view(float).reshape(2, m, 2, -1).transpose(0, 2, 1, 3)
    xsynth, xs = np.stack((dsx, sx))[:, None], np.empty((2, 2, m, m))
    (w_x, psi_x), (w_y, psi_y) = xs
    cells, clayers = grid.reshape(-1), layers.astype(complex)  # l + 0j, as numpy casts it
    parts, scaled, weighted = np.empty(2 * n), np.empty(n, dtype=complex), np.empty((n, 2), dtype=complex)
    jac, cross, scale = np.empty((m, m)), np.empty((m, m)), np.empty((), dtype=complex)
    xa, ya = np.empty((m, ax.shape[1])), np.empty((ay.shape[0], ax.shape[1] // 2), dtype=complex)
    frexp, ldexp, absolute, top = math.frexp, math.ldexp, np.absolute, np.maximum.reduce
    mul, sub, div, matmul = np.multiply, np.subtract, np.divide, np.matmul

    def rhs(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # the sum is quadratic: a power-of-two scale, held as the s + 0j numpy
        # makes of a float, is exact and keeps every grid value of a finite state finite
        scale[()] = ldexp(1.0, -frexp(top(absolute(coeffs.view(float), parts), initial=1.0))[1])
        cells[scatter] = mul(mul(scale, coeffs, scaled)[:, None], clayers, weighted)
        matmul(sy, grid, synth)
        matmul(ys, xsynth, xs)
        sub(mul(w_x, psi_y, jac), mul(w_y, psi_x, cross), jac)
        matmul(jac, ax, xa)
        out = matmul(ay, xa.view(complex), ya).take(gather, None, out, "clip")
        return div(div(out, scale, out), scale, out)

    return rhs


def euler_rhs(field: VorticityField) -> VorticityField:
    """Quadratic mode-coupling right-hand side; preserves reality."""
    return VorticityField(field.modeset, _rhs_workspace(field.modeset)(field.coeffs))


def fixed_point(p: WaveVector, gamma: complex, modeset: ModeSet) -> VorticityField:
    """Single-pump steady state: w_p = Gamma, w_{-p} = conj(Gamma)."""
    if p not in modeset:
        raise UsageError(f"pump mode {p} outside the mode set")
    return VorticityField.from_dict(modeset, {p: gamma})


def _energy_enstrophy(modeset: ModeSet, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, J) of the signed-mode amplitudes along the last axis of full."""
    norms = np.array([k.norm2 for k in modeset.modes], dtype=float)
    amps2 = np.abs(full) ** 2
    return 0.5 * np.sum(amps2 / norms, axis=-1), np.sum(amps2, axis=-1)


def conserved(field: VorticityField, p: WaveVector | None = None) -> tuple[float, float, float | None]:
    """(E, J, I): kinetic energy, enstrophy, and the pump-weighted
    combination I = 2E - |p|^-2 J when a pump direction is supplied.
    Kept public as the per-field oracle that the tests hold
    integrate_euler's batched drift series to."""
    E, J = (float(x) for x in _energy_enstrophy(field.modeset, field.full_vector()))
    I = (2.0 * E - J / p.norm2) if p is not None else None
    return E, J, I


def jacobian_check(p: WaveVector, gamma: complex, modeset: ModeSet) -> float:
    """Largest deviation of the Jacobian of euler_rhs at the pump fixed
    point from the exact linearized coupling:

        entry (k, k') = A(p, k-p) Gamma        if k' = k - p,
                        A(-p, k+p) conj(Gamma) if k' = k + p,
                        0                       otherwise.

    The right-hand side is a quadratic form, rhs(w) = B(w, w), so for any
    probe v the polarization rhs(w* + v) - rhs(w* - v) = 4 B(w*, v) = 2 J v
    holds exactly: half that difference at the unit probes v = 1 and
    v = 1j on each representative is its Jacobian column, with no step
    error and only the rounding of the right-hand side.  The columns for
    k' and -k', the derivatives by w_{k'} and by its conjugate w_{-k'},
    both follow from that pair of probes, so every matrix entry over the
    full signed mode list gets checked.
    """
    base = fixed_point(p, gamma, modeset).coeffs
    modes = modeset.modes
    rhs = _rhs_workspace(modeset)

    def rhs_of(coeffs: np.ndarray) -> np.ndarray:
        return _embed(modeset, rhs(coeffs))

    expected = np.zeros((len(modes), len(modes)), dtype=complex)
    for r, k in enumerate(modes):
        km, kp = k - p, k + p
        if not km.is_zero and km in modeset:
            expected[r, modeset.index(km)] += triad_coeff(p, km) * gamma
        if not kp.is_zero and kp in modeset:
            expected[r, modeset.index(kp)] += triad_coeff(-p, kp) * np.conj(gamma)

    max_dev = 0.0
    unit = np.eye(len(base))
    for c, kc in enumerate(modeset.representatives):
        d_re, d_im = (0.5 * (rhs_of(base + v) - rhs_of(base - v)) for v in (unit[c], 1j * unit[c]))
        col_plus = 0.5 * (d_re - 1j * d_im)  # d rhs / d w_{k_c}
        col_minus = 0.5 * (d_re + 1j * d_im)  # d rhs / d w_{-k_c}
        max_dev = max(
            max_dev,
            float(np.max(np.abs(col_plus - expected[:, modeset.index(kc)]))),
            float(np.max(np.abs(col_minus - expected[:, modeset.index(-kc)]))),
        )
    return max_dev


@dataclass
class EulerTrajectory:
    modeset: ModeSet
    times: np.ndarray
    coeffs: np.ndarray  # (samples, representatives)
    e_drift: float
    j_drift: float

    def field(self, i: int) -> VorticityField:
        return VorticityField(self.modeset, self.coeffs[i].copy())


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericalError
def integrate_euler(
    field0: VorticityField,
    dt: float,
    steps: int,
    sample_every: int = 1,
) -> EulerTrajectory:
    """Classical fixed-step 4th-order integration with E/J drift report.

    Each step adds the stage formula's increment (subsystem._rk4_increment)
    in place to a copy of field0.coeffs and allocates nothing; the state is
    checked for finiteness at each sample, and a failed sample is replayed
    step by step to name the first non-finite step (see subsystem._rk4)."""
    modeset = field0.modeset
    w = field0.coeffs.copy()
    times, coeffs = _rk4(_rk4_increment(_rhs_workspace(modeset), dt, w), w, dt, steps, sample_every)
    E, J = _energy_enstrophy(modeset, _embed(modeset, coeffs))
    return EulerTrajectory(
        modeset=modeset,
        times=times,
        coeffs=coeffs,
        e_drift=_rel_drift("E", E),
        j_drift=_rel_drift("J", J),
    )
