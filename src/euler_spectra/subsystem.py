"""One invariant subsystem of the linearized dynamics.

Restricted to a class {khat + n p}, the linearized equation is the
two-neighbor chain

    d/dt w_n = A(p, k_{n-1}) * Gamma * w_{n-1} + A(-p, k_{n+1}) * conj(Gamma) * w_{n+1}

with k_m = khat + m p.  The chain is a linear Hamiltonian system; both the
quadratic Hamiltonian and the weighted enstrophy sum_n rho_n |w_n|^2 are
conserved, which is what powers the stability classification implemented
here.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .lattice import ClassLabel, WaveVector, canonical_label, det, rho

__all__ = [
    "SubsystemSpec",
    "ComplexSeq",
    "StabilityKind",
    "StabilityVerdict",
    "Trajectory",
    "cle_rhs",
    "hamiltonian",
    "invariant_I",
    "half_invariants",
    "integrate",
    "classify_stability",
    "fit_growth_rate",
]


@dataclass(frozen=True)
class SubsystemSpec:
    """One chain: class data (khat, p), pump amplitude Gamma, and the finite
    index window [n_min, n_max] used for truncation.  Neighbors outside the
    window contribute zero (hard cutoff)."""

    khat: WaveVector
    p: WaveVector
    gamma: complex
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.p.is_zero or self.khat.is_zero:
            raise DomainError("khat and p must be nonzero")
        if not (self.n_min <= 0 <= self.n_max):
            raise DomainError(f"window [{self.n_min}, {self.n_max}] must contain 0")

    @property
    def width(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def hole(self) -> int | None:
        """Window index with khat + n p = 0, if any (parallel classes only)."""
        n = -self.khat.dot(self.p) // self.p.norm2  # the only candidate
        return n if self.member(n).is_zero and self.n_min <= n <= self.n_max else None

    def member(self, n: int) -> WaveVector:
        return self.khat.plus(n, self.p)

    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rho, cm, cp) over the window, built once per spec.

        rho is rho_n with 0 at the hole.  The chain reads
        d/dt w_n = cm[n] w_{n-1} + cp[n] w_{n+1}: since det(p, k_m) =
        det(p, khat) on the whole class, A(p, k_{n-1}) = rho_{n-1} det / 2
        and A(-p, k_{n+1}) = -rho_{n+1} det / 2, so the couplings are the
        rho window shifted by one slot.  The hole's rho of 0 cuts the
        couplings into it (a hole implies det = 0, so every coupling is 0).
        """
        idx = self.indices()
        rho_w = np.zeros(self.width)
        live = idx != self.hole  # all True when there is no hole
        rho_w[live] = rho(self.khat, self.p, idx[live])
        half = 0.5 * rho_w * det(self.p, self.khat)  # triad_coeff's rounding order
        cm = np.append(0j, half[:-1] * self.gamma)
        cp = np.append(-half[1:] * np.conj(self.gamma), 0j)
        for table in (rho_w, cm, cp):
            table.flags.writeable = False
        return rho_w, cm, cp

    def rho_window(self) -> np.ndarray:
        """rho_n over the window (read-only); the hole slot (if any) is 0."""
        return self.tables[0]


@dataclass
class ComplexSeq:
    """Finite window of complex amplitudes; index n = offset + position."""

    offset: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @classmethod
    def zero(cls, spec: SubsystemSpec) -> "ComplexSeq":
        return cls(spec.n_min, np.zeros(spec.width, dtype=complex))

    @classmethod
    def unit(cls, spec: SubsystemSpec, n: int, amplitude: complex = 1.0) -> "ComplexSeq":
        seq = cls.zero(spec)
        seq[n] = amplitude
        return seq

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[n - self.offset])

    def __setitem__(self, n: int, v: complex) -> None:
        self.values[n - self.offset] = v

    @property
    def norm2(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def matches(self, spec: SubsystemSpec) -> bool:
        return self.offset == spec.n_min and len(self.values) == spec.width


def _require_match(spec: SubsystemSpec, state: ComplexSeq) -> None:
    if not state.matches(spec):
        raise UsageError(
            f"state window (offset={state.offset}, len={len(state.values)}) does not "
            f"match spec window [{spec.n_min}, {spec.n_max}]"
        )


def _chain_rhs(spec: SubsystemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The chain's right-hand side d/dt w_n = cm[n] w_{n-1} + cp[n] w_{n+1}
    on window arrays (see SubsystemSpec.tables)."""
    _, cm, cp = spec.tables

    def rhs(w: np.ndarray) -> np.ndarray:
        out = np.zeros_like(w)
        out[1:] += cm[1:] * w[:-1]
        out[:-1] += cp[:-1] * w[1:]
        return out

    return rhs


def cle_rhs(spec: SubsystemSpec, state: ComplexSeq) -> ComplexSeq:
    """Time derivative of the chain state under the linearized dynamics.

    Neighbors outside the window or at the excluded origin contribute
    zero.  When |khat| = |p| the coefficient into n = 0 from below
    vanishes identically, so the two half-chains n >= 1 and n <= -1
    decouple on their own.
    """
    _require_match(spec, state)
    return ComplexSeq(state.offset, _chain_rhs(spec)(state.values))


def _h_series(spec: SubsystemSpec, rho_w: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hamiltonian of each state along the last axis of w."""
    pair_sum = np.sum(spec.gamma * rho_w[1:] * rho_w[:-1] * w[..., :-1] * np.conj(w[..., 1:]), axis=-1)
    return -det(spec.p, spec.khat) * np.imag(pair_sum)


def _i_series(rho_w: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted enstrophy of each state along the last axis of w."""
    return np.sum(rho_w * np.abs(w) ** 2, axis=-1)


def hamiltonian(spec: SubsystemSpec, state: ComplexSeq) -> float:
    """Conserved quadratic Hamiltonian of the chain,

        H = -det[[p1, khat1], [p2, khat2]]
            * Im{ sum_n Gamma rho_n rho_{n-1} w_{n-1} conj(w_n) }

    summed over neighbor pairs wholly inside the window.
    """
    _require_match(spec, state)
    return float(_h_series(spec, spec.rho_window(), state.values))


def invariant_I(spec: SubsystemSpec, state: ComplexSeq) -> float:
    """Conserved weighted enstrophy sum_n rho_n |w_n|^2."""
    _require_match(spec, state)
    return float(_i_series(spec.rho_window(), state.values))


def half_invariants(spec: SubsystemSpec, state: ComplexSeq) -> tuple[float, float]:
    """(I_plus, I_minus): the n >= 1 and n <= -1 partial sums.

    Individually conserved exactly when |khat| = |p| (the half-chains
    decouple there); restricted to that case to keep the contract honest.
    Kept public as a test oracle for that split of I.
    """
    _require_match(spec, state)
    if spec.khat.norm2 != spec.p.norm2:
        raise UsageError("half invariants are conserved only when |khat| = |p|")
    rho_w = spec.rho_window()
    idx = spec.indices()
    w2 = np.abs(state.values) ** 2
    plus = float(np.sum(rho_w[idx >= 1] * w2[idx >= 1]))
    minus = float(np.sum(rho_w[idx <= -1] * w2[idx <= -1]))
    return plus, minus


@dataclass
class Trajectory:
    """Sampled integration output plus conservation diagnostics relative
    to t = 0."""

    spec: SubsystemSpec
    times: np.ndarray
    states: np.ndarray  # shape (samples, window)
    h_drift: float
    i_drift: float
    enstrophy_ratio: float

    def state(self, i: int) -> ComplexSeq:
        return ComplexSeq(self.spec.n_min, self.states[i].copy())


def _finite(name: str, value) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"{name} is not finite (the run overflowed); reduce dt, steps or the amplitudes")
    return float(value)


def _rel_drift(name: str, series: np.ndarray) -> float:
    """max_t |q(t) - q(0)| / |q(0)| of an invariant's sample series."""
    ref = series[0]
    scale = max(abs(ref), 1e-300)
    return _finite(f"{name} drift", np.max(np.abs(series - ref)) / scale)


def _rk4(
    rhs: Callable[[np.ndarray], np.ndarray],
    w0: np.ndarray,
    dt: float,
    steps: int,
    sample_every: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step 4th-order Runge-Kutta from w0.

    Returns (times, samples): t = 0 and every sample_every-th step, plus
    the last step; samples has shape (len(times),) + w0.shape.
    """
    if dt <= 0 or steps < 1 or sample_every < 1:
        raise DomainError("need dt > 0, steps >= 1 and sample_every >= 1")
    w = np.array(w0, dtype=complex)
    samples = [w]
    times = [0.0]
    for step in range(1, steps + 1):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(w)):
            raise NumericalError(f"non-finite state at step {step}")
        if step % sample_every == 0 or step == steps:
            samples.append(w)
            times.append(step * dt)
    return np.array(times), np.array(samples)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericalError
def integrate(
    spec: SubsystemSpec,
    state0: ComplexSeq,
    dt: float,
    steps: int,
    sample_every: int = 1,
) -> Trajectory:
    """Classical fixed-step 4th-order integration of cle_rhs.

    Returns sampled states together with the relative drifts of the
    Hamiltonian and of the weighted enstrophy, and the peak enstrophy
    ratio max_t ||w(t)||^2 / ||w(0)||^2.  Raises NumericalError when the
    state or an invariant series stops being finite.
    """
    _require_match(spec, state0)
    times, states = _rk4(_chain_rhs(spec), state0.values, dt, steps, sample_every)
    rho_w = spec.rho_window()
    enstrophy = np.sum(np.abs(states) ** 2, axis=1)
    ratio = np.max(enstrophy) / enstrophy[0] if enstrophy[0] > 0 else 1.0
    return Trajectory(
        spec=spec,
        times=times,
        states=states,
        h_drift=_rel_drift("H", _h_series(spec, rho_w, states)),
        i_drift=_rel_drift("I", _i_series(rho_w, states)),
        enstrophy_ratio=_finite("enstrophy ratio", ratio),
    )


class StabilityKind(enum.Enum):
    PARALLEL_TRIVIAL = "ParallelTrivial"
    STABLE_UDT = "StableUDT"
    STABLE_HALF_CLASS_BOTH = "StableHalfClassBoth"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class StabilityVerdict:
    kind: StabilityKind
    sigma: float | None
    detail: str


def _sigma_from_min_norm2(min_norm2: int, p_norm2: int) -> float:
    # sigma = sup(-rho) / inf(-rho) over the relevant index range; the sup
    # is the |n| -> infinity limit 1/|p|^2, the inf sits at the member
    # closest to the disk, so sigma = m / (m - |p|^2) with integer m.
    return min_norm2 / (min_norm2 - p_norm2)


def classify_stability(label: ClassLabel) -> StabilityVerdict:
    """Stability verdict for one class, by conserved-quantity arguments.

    ParallelTrivial: khat || p, zero vector field.
    StableUDT: class misses the closed disk |k| <= |p|; every trajectory
        keeps ||w(t)||^2 <= sigma ||w(0)||^2 (Trajectory.enstrophy_ratio
        <= sigma), sigma = sup(-rho_n) / inf(-rho_n).
    StableHalfClassBoth: minimal member sits on the circle |k| = |p|; a
        non-parallel class has no other member there (lattice.circle_member),
        so both half-chains, from khat + p and khat - p, miss the closed
        disk and are stable.
    Undetermined: class meets the open disk; point spectrum possible.
    """
    label = canonical_label(label.khat, label.p)  # tolerate non-canonical input
    p2 = label.p.norm2
    if label.parallel:
        return StabilityVerdict(StabilityKind.PARALLEL_TRIVIAL, None, "khat parallel to p: zero dynamics")
    m = label.khat.norm2
    if m > p2:
        sigma = _sigma_from_min_norm2(m, p2)
        return StabilityVerdict(
            StabilityKind.STABLE_UDT, sigma, f"class misses closed disk; enstrophy bound sigma={sigma!r}"
        )
    if m == p2:
        # |khat + n p|^2 is convex in n with its minimum at n = 0, so each
        # half-chain's member nearest the disk is khat +/- p
        sig = max(_sigma_from_min_norm2(label.member(side).norm2, p2) for side in (+1, -1))
        return StabilityVerdict(StabilityKind.STABLE_HALF_CLASS_BOTH, sig, "both half-chains stable; n=0 only driven")
    return StabilityVerdict(StabilityKind.UNDETERMINED, None, "class meets the open disk")


def fit_growth_rate(times: np.ndarray, series: np.ndarray) -> float:
    """Least-squares slope of log(series) over the trailing third of the
    samples (transients decay out of the fit window)."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if np.any(series <= 0):
        raise DomainError("growth-rate fit needs a positive series")
    start = 2 * len(times) // 3
    t = times[start:]
    y = np.log(series[start:])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)
