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

Each public name is imported from its module; the package namespace
exports nothing.
"""
