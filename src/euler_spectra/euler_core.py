"""Galerkin-truncated nonlinear vorticity dynamics in Fourier modes.

The quadratic system

    d/dt w_k = sum over unordered pairs {p, q}, p + q = k, of A(p, q) w_p w_q

is restricted to triads lying wholly inside a negation-closed mode set, so
kinetic energy E = 1/2 sum |k|^-2 |w_k|^2 and enstrophy J = sum |w_k|^2 are
conserved exactly by the truncation.  Reality (w_{-k} = conj w_k) is
enforced structurally: only one representative per +-k pair is stored.

The single-pump steady states w*_{+-p} = Gamma / conj(Gamma) are fixed
points; a finite-difference Jacobian check against the two-diagonal
linearized coupling ties this module to the per-class chain dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, UsageError
from .lattice import WaveVector, lattice_points_in_disk, triad_coeff
from .subsystem import _rel_drift, _rk4

__all__ = [
    "ModeSet",
    "VorticityField",
    "euler_rhs",
    "fixed_point",
    "conserved",
    "jacobian_check",
    "integrate_euler",
]


def _is_representative(k: WaveVector) -> bool:
    return k.k1 > 0 or (k.k1 == 0 and k.k2 > 0)


@dataclass(frozen=True)
class ModeSet:
    """Nonzero lattice modes with |k| <= cutoff, closed under k -> -k.

    The index, the representatives, the triad table and the embedding are
    derived once per instance, on first use.
    """

    cutoff: float
    modes: tuple[WaveVector, ...]

    @classmethod
    def disk(cls, cutoff: float) -> "ModeSet":
        if cutoff < 1.0:
            raise DomainError("cutoff below 1 leaves no modes")
        # norms are integers, so |k|^2 <= cutoff^2 iff |k|^2 <= floor(cutoff^2)
        return cls(cutoff=cutoff, modes=tuple(lattice_points_in_disk(int(cutoff * cutoff))))

    def __post_init__(self):
        for k in self.modes:
            if k.is_zero or -k not in self._index:
                raise DomainError("mode set must exclude the origin and be negation-closed")

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
    def triads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flattened unordered-pair triad table (k_idx, p_idx, q_idx, coeff)
        with every leg inside the mode set; pairs with zero coefficient are
        dropped."""
        ks, ps, qs, cs = [], [], [], []
        n = len(self.modes)
        for i in range(n):
            p = self.modes[i]
            for j in range(i, n):
                q = self.modes[j]
                k = p + q
                if k.is_zero or k not in self:
                    continue
                coeff = triad_coeff(p, q)
                if coeff == 0.0:
                    continue
                ks.append(self.index(k))
                ps.append(i)
                qs.append(j)
                cs.append(coeff)
        return np.array(ks), np.array(ps), np.array(qs), np.array(cs)

    @cached_property
    def embedding(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, conj, rep_idx): signed mode i takes representative src[i],
        conjugated where conj[i]; representative r sits at mode rep_idx[r]."""
        rep_pos = {k: i for i, k in enumerate(self.representatives)}
        src = np.array([rep_pos[k] if k in rep_pos else rep_pos[-k] for k in self.modes], dtype=int)
        conj = np.array([k not in rep_pos for k in self.modes], dtype=bool)
        rep_idx = np.array([self.index(k) for k in self.representatives], dtype=int)
        return src, conj, rep_idx


@dataclass
class VorticityField:
    """Field over a mode set; stores one complex amplitude per
    representative (+k half), the -k partner being its conjugate."""

    modeset: ModeSet
    coeffs: np.ndarray  # aligned with modeset.representatives

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if len(self.coeffs) != len(self.modeset.representatives):
            raise UsageError("coefficient array does not match the representative count")

    @classmethod
    def zero(cls, modeset: ModeSet) -> "VorticityField":
        return cls(modeset, np.zeros(len(modeset.representatives), dtype=complex))

    @classmethod
    def from_dict(cls, modeset: ModeSet, values: dict[WaveVector, complex]) -> "VorticityField":
        fld = cls.zero(modeset)
        src, conj, _ = modeset.embedding
        seen: dict[int, complex] = {}
        for k, v in values.items():
            if k not in modeset:
                raise DomainError(f"mode {k} outside the mode set")
            i = modeset.index(k)
            rep, stored = src[i], (np.conj(complex(v)) if conj[i] else complex(v))
            if rep in seen and abs(seen[rep] - stored) > 1e-12 * max(1.0, abs(stored)):
                raise DomainError(f"conflicting values violate w(-k) = conj(w(k)) at {k}")
            seen[rep] = stored
            fld.coeffs[rep] = stored
        return fld

    def value(self, k: WaveVector) -> complex:
        src, conj, _ = self.modeset.embedding
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
    src, conj, _ = modeset.embedding
    full = np.ascontiguousarray(coeffs[..., src])
    full[..., conj] = np.conj(full[..., conj])
    return full


def _rhs_full(modeset: ModeSet, full: np.ndarray) -> np.ndarray:
    ks, ps, qs, cs = modeset.triads
    prod = cs * full[ps] * full[qs]
    out_re = np.bincount(ks, weights=prod.real, minlength=len(full))
    out_im = np.bincount(ks, weights=prod.imag, minlength=len(full))
    return out_re + 1j * out_im


def _rep_rhs(modeset: ModeSet, coeffs: np.ndarray) -> np.ndarray:
    """Right-hand side on representative amplitudes, representatives out."""
    return _rhs_full(modeset, _embed(modeset, coeffs))[modeset.embedding[2]]


def euler_rhs(field: VorticityField) -> VorticityField:
    """Quadratic mode-coupling right-hand side; preserves reality."""
    return VorticityField(field.modeset, _rep_rhs(field.modeset, field.coeffs))


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


@dataclass(frozen=True)
class JacobianReport:
    max_deviation: float
    entries_checked: int


def jacobian_check(p: WaveVector, gamma: complex, modeset: ModeSet, h: float = 1e-6) -> JacobianReport:
    """Compare the finite-difference Jacobian of euler_rhs at the pump
    fixed point against the exact linearized coupling:

        entry (k, k') = A(p, k-p) Gamma        if k' = k - p,
                        A(-p, k+p) conj(Gamma) if k' = k + p,
                        0                       otherwise.

    Columns for k' and -k' are both recovered from one pair of real /
    imaginary probes (the linearized operator is complex-linear), so every
    matrix entry over the full signed mode list gets checked.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    base = fixed_point(p, gamma, modeset)
    reps = modeset.representatives
    modes = modeset.modes
    n_full = len(modes)

    def rhs_of(coeffs: np.ndarray) -> np.ndarray:
        return _rhs_full(modeset, _embed(modeset, coeffs))

    expected = np.zeros((n_full, n_full), dtype=complex)
    for r, k in enumerate(modes):
        km, kp = k - p, k + p
        if not km.is_zero and km in modeset:
            expected[r, modeset.index(km)] += triad_coeff(p, km) * gamma
        if not kp.is_zero and kp in modeset:
            expected[r, modeset.index(kp)] += triad_coeff(-p, kp) * np.conj(gamma)

    max_dev = 0.0
    checked = 0
    for c, kc in enumerate(reps):
        bump = np.zeros(len(reps), dtype=complex)
        bump[c] = h
        d_re = (rhs_of(base.coeffs + bump) - rhs_of(base.coeffs - bump)) / (2 * h)
        bump[c] = 1j * h
        d_im = (rhs_of(base.coeffs + bump) - rhs_of(base.coeffs - bump)) / (2 * h)
        col_plus = 0.5 * (d_re - 1j * d_im)   # d rhs / d w_{k_c}
        col_minus = 0.5 * (d_re + 1j * d_im)  # d rhs / d w_{-k_c}
        i_plus = modeset.index(kc)
        i_minus = modeset.index(-kc)
        max_dev = max(
            max_dev,
            float(np.max(np.abs(col_plus - expected[:, i_plus]))),
            float(np.max(np.abs(col_minus - expected[:, i_minus]))),
        )
        checked += 2 * n_full
    return JacobianReport(max_deviation=max_dev, entries_checked=checked)


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
    """Classical fixed-step 4th-order integration with E/J drift report."""
    modeset = field0.modeset
    times, coeffs = _rk4(lambda w: _rep_rhs(modeset, w), field0.coeffs, dt, steps, sample_every)
    E, J = _energy_enstrophy(modeset, _embed(modeset, coeffs))
    return EulerTrajectory(
        modeset=modeset,
        times=times,
        coeffs=coeffs,
        e_drift=_rel_drift("E", E),
        j_drift=_rel_drift("J", J),
    )
