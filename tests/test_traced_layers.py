"""perfbench's tracer still finds every layer it wraps.

A traced benchmark round wraps package functions by name and reads
attributes of their arguments (``params.rho_seq``, ``op.size``, ...).  A
refactor that drops one of them breaks only traced rounds, so this test
makes one small call per traced layer and checks the counters they feed.
"""

import importlib.util
from pathlib import Path

from euler_spectra import cli, contfrac, euler_core, subsystem
from euler_spectra.euler_core import ModeSet, fixed_point
from euler_spectra.lattice import WaveVector
from euler_spectra.subsystem import ComplexSeq, SubsystemSpec

V = WaveVector
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records(capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # the half-chain search from the circle member of p=2,1, first, so
        # that the depth counted so far is its own
        contfrac.find_eigenvalues_half(contfrac.CFParams.for_class(V(2, -1), V(2, 1), 1.0), -1, grid=2)
        half_depth = tracer.counts["contfrac.max_depth"]
        cls = ["--p", "1,1", "--khat", "1,0"]
        assert cli.main(["eigs-cf", *cls, "--box", "0.05,1,0.05,1", "--grid", "2"]) == 0
        assert cli.main(["eigs-matrix", *cls, "--n-matrix", "20"]) == 0
        assert cli.main(["euler-sim", "--p", "1,1", "--k-cutoff", "2", "--steps", "5"]) == 0
        spec = SubsystemSpec(khat=V(1, 0), p=V(1, 1), gamma=1.0, n_min=-5, n_max=5)
        subsystem.integrate(spec, ComplexSeq.unit(spec, 0), dt=1e-2, steps=7)
        euler_core.euler_rhs(fixed_point(V(1, 1), 1.0, ModeSet.disk(2.0)))
    finally:
        tracer.unpatch()
    capsys.readouterr()

    counts = tracer.counts
    assert half_depth > 0
    assert counts["contfrac.max_depth"] > 0
    assert counts["matrixop.dense_n3"] == 20**3
    assert counts["subsystem.rk4_steps"] == 7
    assert counts["euler_core.rk4_steps"] == 5
    spans = tracer.summary()
    for name in (
        "cli.eigs-cf",
        "cli.eigs-matrix",
        "cli.euler-sim",
        "contfrac.find_eigenvalues",
        "contfrac.find_eigenvalues_half",
        "matrixop.truncated_spectrum",
        "subsystem.integrate",
        "euler_core.integrate_euler",
        "euler_core.first_rhs",
    ):
        assert spans[name]["calls"] >= 1, name
