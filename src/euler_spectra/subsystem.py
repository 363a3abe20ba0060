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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, UsageError
from .lattice import WaveVector, canonical_label, circle_member, det, kappa, parallel, rho

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

WINDOW_CAP = 1 << 16  # sites of a chain window; a trajectory holds samples x sites
STEPS_CAP = 1 << 20  # RK4 steps of one integration; each step is a Python-level loop turn


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
            raise UsageError("khat and p must be nonzero")
        if not (self.n_min <= 0 <= self.n_max):
            raise UsageError(f"window [{self.n_min}, {self.n_max}] must contain 0")
        if self.width > WINDOW_CAP:
            raise UsageError(f"window [{self.n_min}, {self.n_max}] is capped at WINDOW_CAP = {WINDOW_CAP} sites")

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
    """Finite window of complex amplitudes; index n = offset + position.

    values has shape (width,) for one state; integrate also takes a batch
    of states, values of shape (batch, width), one per row.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @classmethod
    def zero(cls, spec: SubsystemSpec) -> "ComplexSeq":
        return cls(spec.n_min, np.zeros(spec.width, dtype=complex))

    @classmethod
    def unit(cls, spec: SubsystemSpec, n: int) -> "ComplexSeq":
        seq = cls.zero(spec)
        seq[n] = 1.0
        return seq

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[n - self.offset])

    def __setitem__(self, n: int, v: complex) -> None:
        self.values[n - self.offset] = v

    @property
    def norm2(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def matches(self, spec: SubsystemSpec) -> bool:
        return self.offset == spec.n_min and self.values.shape[-1:] == (spec.width,)


def _require_match(spec: SubsystemSpec, state: ComplexSeq, batch: bool = False) -> None:
    """UsageError unless state is one state on spec's window, or, where
    batch is allowed, a (batch, width) array of them."""
    shape = state.values.shape
    if len(shape) != 1 and not (batch and len(shape) == 2):
        wanted = "one state of shape (width,)" + (" or a batch of shape (batch, width)" if batch else "")
        raise UsageError(f"state values of shape {shape}: expected {wanted}")
    if not state.matches(spec):
        raise UsageError(
            f"state window (offset={state.offset}, len={shape[-1]}) does not "
            f"match spec window [{spec.n_min}, {spec.n_max}]"
        )


def _chain_rhs(spec: SubsystemSpec) -> Callable[..., np.ndarray]:
    """The chain's right-hand side d/dt w_n = cm[n] w_{n-1} + cp[n] w_{n+1}
    on window arrays (see SubsystemSpec.tables), along the last axis, so a
    (batch, width) array steps every row at once; into out, or a new array."""
    _, cm, cp = spec.tables
    below, above = cm[1:], cp[:-1]

    def rhs(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(w) if out is None else out
        out[...] = 0
        out[..., 1:] += below * w[..., :-1]
        out[..., :-1] += above * w[..., 1:]
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
    to t = 0.

    For one state, states has shape (samples, window) and the drifts and
    the ratio are floats.  For a batch, states has shape (batch, samples,
    window) and the drifts and the ratio are arrays with one value per row;
    each row equals, bit for bit, the run of that row alone.
    """

    spec: SubsystemSpec
    times: np.ndarray
    states: np.ndarray
    h_drift: float | np.ndarray
    i_drift: float | np.ndarray
    enstrophy_ratio: float | np.ndarray

    def state(self, i: int) -> ComplexSeq:
        """Sample i, a batch of states for a batched run."""
        return ComplexSeq(self.spec.n_min, self.states[..., i, :].copy())


def _finite(name: str, value):
    """value as a float, or a batch of values as an array; NumericalError
    unless every value is finite."""
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{name} is not finite (the run overflowed); reduce dt, steps or the amplitudes")
    return float(value) if np.ndim(value) == 0 else value


# the zero-reference floor of _rel_drift over the bound, shared by H and
# I: 1024 rounding units lie far above the few units of noise in a series
# and far below |q(0)| / bound of a generic start state (at least 2.9e-4
# for the random states of the tests, 6e-2 in check 5)
_ZERO_REF = 1024 * float(np.finfo(float).eps)


def _rel_drift(name: str, series: np.ndarray, bound: float | np.ndarray = 0.0):
    """max_t |q(t) - q(0)| / |q(0)| of an invariant's sample series, time
    along the last axis: a float for one series, an array for a batch.

    Where |q(0)| is at most _ZERO_REF * bound, bound a bound on |q|
    at t = 0 (one per row for a batch), the drift is taken relative to
    bound instead: q is a sum of terms up to bound in size, so a q(0)
    that small is zero within the rounding of its own evaluation, and
    rounding noise over it is no drift of the invariant.
    """
    ref = series[..., :1]
    ref0 = np.abs(ref[..., 0])
    scale = np.maximum(np.where(ref0 <= _ZERO_REF * bound, bound, ref0), 1e-300)
    return _finite(f"{name} drift", np.max(np.abs(series - ref), axis=-1) / scale)


def _rk4_increment(rhs: Callable[..., np.ndarray], dt: float, w: np.ndarray) -> Callable[[], np.ndarray]:
    """increment(), the classical 4th-order Runge-Kutta increment
    w(t + dt) - w(t) of d/dt w = rhs(w) at the state buffer w holds, taken
    stage by stage, rhs(x, out) writing into out:

        (dt / 6) (k1 + 2 k2 + 2 k3 + k4),  k1 = rhs(w),
        k2 = rhs(w + dt/2 k1),  k3 = rhs(w + dt/2 k2),  k4 = rhs(w + dt k3).

    The stage sum is added up left to right as the stages come, which
    rounds as the sum written out does, in three buffers made once here:
    a call allocates nothing, leaves w alone and returns the same buffer.
    """
    total, stage, k = (np.empty_like(w) for _ in range(3))
    # 0-d arrays of w's type: the operands numpy makes of float scalars
    half, two, whole, sixth = (np.array(c, dtype=w.dtype) for c in (0.5 * dt, 2.0, dt, dt / 6.0))
    add, mul = np.add, np.multiply

    def increment() -> np.ndarray:
        rhs(w, total)
        rhs(add(w, mul(half, total, stage), stage), k)
        for h in (half, whole):
            add(total, mul(two, k, stage), total)
            rhs(add(w, mul(h, k, stage), stage), k)
        return mul(sixth, add(total, k, total), total)

    return increment


def _rk4(
    increment: Callable[[], np.ndarray],
    w: np.ndarray,
    dt: float,
    steps: int,
    sample_every: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step integration w += increment() in place, w being a buffer
    the caller owns and increment() one step of size dt at the state that
    buffer holds, which may reuse one result buffer (see _rk4_increment).

    Returns (times, samples): t = 0 and every sample_every-th step, plus
    the last step; samples has shape (len(times),) + w.shape.

    Finiteness is checked at each sample, not at each step.  Under +=, an
    entry that turned inf or NaN stays non-finite, so a sample that is all
    finite proves every step since the last sample was.  A sample that is
    not is replayed from the last sample one checked step at a time, which
    costs at most one sample interval, and only on failure, and names the
    first non-finite step, as a check after every step would.
    """
    if dt <= 0 or steps < 1 or sample_every < 1:
        raise UsageError("need dt > 0, steps >= 1 and sample_every >= 1")
    if steps > STEPS_CAP:
        raise UsageError(f"steps are capped at STEPS_CAP = {STEPS_CAP}, got {steps}")
    samples = [w.copy()]
    times = [0.0]
    for step in range(1, steps + 1):
        w += increment()
        if step % sample_every == 0 or step == steps:
            if not np.isfinite(w).all():
                w[...] = samples[-1]
                for replayed in range((step - 1) // sample_every * sample_every + 1, step + 1):
                    w += increment()
                    if not np.isfinite(w).all():
                        raise NumericalError(f"non-finite state at step {replayed}")
            samples.append(w.copy())
            times.append(step * dt)
    return np.array(times), np.array(samples)


# one RK4 step of the tridiagonal chain is a degree-4 polynomial in its
# matrix, so the increment at i reads w[i - 4] .. w[i + 4]
_REACH = 4


def _chain_band(spec: SubsystemSpec, dt: float) -> np.ndarray:
    """The chain's RK4 increment as a (2 * _REACH + 1, width) band:
    band[k, i] is the weight of w[i + k - _REACH] in the increment at i,
    0 where that index leaves the window.

    The band is read off with one comb probe per residue r mod 9, the
    probe being 1 at every index i = r (mod 9) (the column grouping of
    Curtis, Powell & Reid, J. Inst. Math. Appl. 13 (1974) 117).  At most
    one index of a comb lies within reach of an output, and the others
    add exact zeros, so response r at i is that one index's weight, bit
    for bit the one the stage formula gives a unit vector.
    """
    span = 2 * _REACH + 1
    idx = np.arange(spec.width)
    probes = (idx % span == np.arange(span)[:, None]).astype(complex)
    response = _rk4_increment(_chain_rhs(spec), dt, probes)()
    src = idx + np.arange(span)[:, None] - _REACH  # the index band[k, i] weighs
    return np.where((src >= 0) & (src < spec.width), response[src % span, idx], 0)


def _chain_increment(spec: SubsystemSpec, dt: float, w0: np.ndarray) -> tuple[Callable[[], np.ndarray], np.ndarray]:
    """(increment, w), the arguments _rk4 steps in place: the chain's RK4
    increment at the state w holds, one multiply-sum over the band per
    call, and a state buffer w holding a copy of w0.

    w is the interior view of a zero-padded buffer, so the (..., 9, width)
    window view reads the state with no copy; that buffer, the product
    and the result are made once, here, and a call allocates nothing.
    """
    band = _chain_band(spec, dt)
    padded = np.zeros(w0.shape[:-1] + (spec.width + 2 * _REACH,), dtype=complex)
    w = padded[..., _REACH:-_REACH]
    w[...] = w0
    windows = sliding_window_view(padded, spec.width, axis=-1)  # windows[..., k, i] = w[i + k - 4]
    prod, inc = np.empty(windows.shape, dtype=complex), np.empty(w.shape, dtype=complex)

    def increment() -> np.ndarray:
        np.multiply(windows, band, prod)
        return np.add.reduce(prod, -2, None, inc)

    return increment, w


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
    Hamiltonian and of the weighted enstrophy (relative to the invariant's
    bound at t = 0 where its value there is zero within rounding, see
    _rel_drift), and the peak enstrophy ratio max_t ||w(t)||^2 / ||w(0)||^2
    (1.0 for a zero state).
    Raises NumericalError when the state or an invariant series stops
    being finite, checking the H drift, then the I drift, then the ratio;
    the state is checked at each sample, and a failed sample is replayed
    to name the first non-finite step (see _rk4).

    Each step is one multiply-sum over the 9-diagonal band of the RK4
    increment, read off once per call (see _chain_band), added in place to
    a state buffer that is the interior of a zero-padded one, so a step
    allocates nothing (see _chain_increment).

    state0 may hold a batch of states, values of shape (batch, width):
    all rows step in one RK4 loop, and the Trajectory reports each row's
    samples, drifts and ratio (see Trajectory).
    """
    _require_match(spec, state0, batch=True)
    times, samples = _rk4(*_chain_increment(spec, dt, state0.values), dt, steps, sample_every)
    states = np.moveaxis(samples, 0, -2)  # rows first, time next to the window
    rho_w = spec.rho_window()
    enstrophy = np.sum(np.abs(states) ** 2, axis=-1)
    peak, start = np.max(enstrophy, axis=-1), enstrophy[..., 0]
    ratio = np.divide(peak, start, out=np.ones_like(peak), where=start > 0)
    # |H| <= |det| |Gamma| max|rho|^2 ||w||^2 and |I| <= max|rho| ||w||^2
    rho_max = np.max(np.abs(rho_w))
    h_bound = abs(det(spec.p, spec.khat)) * abs(spec.gamma) * rho_max**2 * start
    return Trajectory(
        spec=spec,
        times=times,
        states=states,
        h_drift=_rel_drift("H", _h_series(spec, rho_w, states), h_bound),
        i_drift=_rel_drift("I", _i_series(rho_w, states), rho_max * start),
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


def classify_stability(k: WaveVector, p: WaveVector) -> StabilityVerdict:
    """Stability verdict for the class of k, any member, by
    conserved-quantity arguments.

    ParallelTrivial: khat || p, zero vector field.
    StableUDT: class misses the closed disk |k| <= |p|; every trajectory
        keeps ||w(t)||^2 <= sigma ||w(0)||^2 (Trajectory.enstrophy_ratio
        <= sigma), sigma = sup(-rho_n) / inf(-rho_n).
    StableHalfClassBoth: minimal member sits on the circle |k| = |p|; a
        non-parallel class has no other member there (lattice.circle_member),
        so both half-chains, from khat + p and khat - p, miss the closed
        disk and are stable.
    Undetermined: class meets the open disk; point spectrum possible.

    The kind is read off lattice.kappa (members inside the open disk) and
    lattice.circle_member, the facts the solvers route on.
    """
    khat = canonical_label(k, p)
    p2 = p.norm2
    if parallel(khat, p):
        return StabilityVerdict(StabilityKind.PARALLEL_TRIVIAL, None, "khat parallel to p: zero dynamics")
    if kappa(khat, p) > 0:
        return StabilityVerdict(StabilityKind.UNDETERMINED, None, "class meets the open disk")
    if circle_member(khat, p) is None:
        sigma = _sigma_from_min_norm2(khat.norm2, p2)
        return StabilityVerdict(
            StabilityKind.STABLE_UDT, sigma, f"class misses closed disk; enstrophy bound sigma={sigma!r}"
        )
    # no member inside the disk, so the circle member is the minimal one,
    # khat; |khat + n p|^2 is convex in n with its minimum at n = 0, so each
    # half-chain's member nearest the disk is khat +/- p
    sig = max(_sigma_from_min_norm2(khat.plus(side, p).norm2, p2) for side in (+1, -1))
    return StabilityVerdict(StabilityKind.STABLE_HALF_CLASS_BOTH, sig, "both half-chains stable; n=0 only driven")


def fit_growth_rate(times: np.ndarray, series: np.ndarray) -> float:
    """Least-squares slope of log(series) over the last third of the
    samples (transients decay out of the fit window).

    Raises UsageError unless times and series are 1-D and of one length,
    every value is finite, the times strictly increase, every series value
    is positive, and the window holds at least 2 samples, which takes 4
    samples in all."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if times.ndim != 1 or times.shape != series.shape:
        raise UsageError(
            f"growth-rate fit needs 1-D times and series of one length, got shapes {times.shape} and {series.shape}"
        )
    if not (np.isfinite(times).all() and np.isfinite(series).all()):
        raise UsageError("growth-rate fit needs finite times and series")
    if np.any(np.diff(times) <= 0):
        raise UsageError("growth-rate fit needs strictly increasing times")
    if np.any(series <= 0):
        raise UsageError("growth-rate fit needs a positive series")
    start = 2 * len(times) // 3
    if len(times) - start < 2:
        raise UsageError(
            f"growth-rate fit needs at least 2 samples in its window, the last third; got {len(times)} "
            "samples in all, give at least 4"
        )
    t = times[start:]
    y = np.log(series[start:])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)
