"""Spectral analysis of mode-coupled vorticity chains on the integer lattice.

Modules:
  lattice      -- triad coefficients, class decomposition, disk predicates
  subsystem    -- one invariant chain: dynamics, conserved quantities, stability
  contfrac     -- point spectrum via continued fractions
  matrixop     -- truncated infinite-matrix oracles, resolvent, det-M test
  euler_core   -- Galerkin-truncated nonlinear vorticity system
  reporting    -- canonical JSON and CSV serializers
  verification -- the nine numbered acceptance checks
  cli          -- command-line driver emitting figure-ready data
"""

from .contfrac import CFParams, EigenQuadruple, f_eigen, find_eigenvalues
from .euler_core import ModeSet, VorticityField, euler_rhs, fixed_point, integrate_euler
from .lattice import (
    ClassLabel,
    RhoSequence,
    WaveVector,
    canonical_label,
    classes_meeting_disk,
    rho,
    triad_coeff,
)
from .matrixop import build, detM_eigentest, essential_band, resolvent_apply, truncated_spectrum
from .subsystem import (
    ComplexSeq,
    StabilityKind,
    StabilityVerdict,
    SubsystemSpec,
    classify_stability,
    integrate,
)

__all__ = [
    "CFParams",
    "WaveVector",
    "ClassLabel",
    "ComplexSeq",
    "EigenQuadruple",
    "ModeSet",
    "RhoSequence",
    "StabilityKind",
    "StabilityVerdict",
    "SubsystemSpec",
    "VorticityField",
    "build",
    "canonical_label",
    "classes_meeting_disk",
    "classify_stability",
    "detM_eigentest",
    "essential_band",
    "euler_rhs",
    "f_eigen",
    "find_eigenvalues",
    "fixed_point",
    "integrate",
    "integrate_euler",
    "resolvent_apply",
    "rho",
    "triad_coeff",
    "truncated_spectrum",
]
