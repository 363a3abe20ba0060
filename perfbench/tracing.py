"""Spans and counters recorded from outside the package.

A traced worker wraps public functions of ``euler_spectra`` at the module
attribute where their caller looks them up (``cli.find_eigenvalues``,
``verification.truncated_spectrum``, ``subsystem.hamiltonian`` for the
call inside ``subsystem.integrate``, ...).  Nothing inside ``src/`` is
edited.  Spans are kept in memory and reduced when the worker ends.

A span's self time is its duration minus the time covered by the spans it
directly encloses; ``lattice.self_s`` and ``cli.self_s`` sum self times
over every span of that layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, start, child_seconds]
        self.spans: list[tuple[str, float, float]] = []  # (name, total, self)
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def start(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def stop(self) -> None:
        name, start, child = self._stack.pop()
        total = time.perf_counter() - start
        self.spans.append((name, total, total - child))
        if self._stack:
            self._stack[-1][2] += total

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``after(bound_args, result)`` may
        update counters once the call returns.  ``name`` may be a callable
        of the bound arguments, for spans named after an argument."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if after is not None or callable(name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            self.start(name(bound.arguments) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop()
            if after is not None:
                after(bound.arguments, result)
            return result

        return traced

    def patch(self, name, sites, after=None) -> None:
        """Replace ``module.attr`` at every site by one traced wrapper of the
        function the first site holds.  Sites whose module no longer has the
        name are skipped, so a refactor that drops an import loses a span
        rather than the run."""
        sites = [(module, attr) for module, attr in sites if hasattr(module, attr)]
        if not sites:
            return
        module, attr = sites[0]
        wrapped = self.wrap(name, getattr(module, attr), after)
        for module, attr in sites:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, total, own in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total
            row["self_s"] += own
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from euler_spectra import cli, contfrac, euler_core, matrixop, reporting, subsystem, verification

    counts = tracer.counts

    def after_search(args, quads):
        grid = args["grid"]
        counts["contfrac.seeds"] += grid * grid
        counts["contfrac.quadruples"] += len(quads)
        depth = len(args["params"].rho_seq.values)
        counts["contfrac.max_depth"] = max(counts["contfrac.max_depth"], depth)

    def after_spectrum(args, ev):
        counts["matrixop.dense_n3"] += args["op"].size ** 3

    def after_classify(args, mask):
        counts["matrixop.isolated"] += int(mask.sum())

    def after_integrate(args, traj):
        counts["subsystem.rk4_steps"] += args["steps"]

    def after_integrate_euler(args, traj):
        counts["euler_core.rk4_steps"] += args["steps"]
        counts["euler_core.modes"] += len(args["field0"].modeset.modes)

    def after_json(args, text):
        counts["reporting.bytes_out"] += len(text.encode("utf-8"))

    seen_cutoffs: set = set()

    def rhs_span(args):
        modeset = args["field"].modeset
        key = (modeset.cutoff, modeset.modes)
        if key in seen_cutoffs:
            return "euler_core.euler_rhs"
        seen_cutoffs.add(key)
        return "euler_core.first_rhs"

    def sites(name, *modules):
        return [(m, name) for m in modules]

    patches = [
        (lambda args: f"cli.{args['argv'][0]}", sites("main", cli), None),
        ("contfrac.find_eigenvalues", sites("find_eigenvalues", contfrac, cli, verification), after_search),
        ("contfrac.find_eigenvalues_half", sites("find_eigenvalues_half", contfrac), after_search),
        ("contfrac.mode_amplitudes", sites("mode_amplitudes", contfrac, verification), None),
        ("matrixop.build", sites("build", matrixop, cli, verification), None),
        ("matrixop.truncated_spectrum", sites("truncated_spectrum", matrixop, cli, verification), after_spectrum),
        ("matrixop.classify_band_distance", sites("classify_band_distance", matrixop, cli), after_classify),
        # spans with no metric of their own (essential_band, classify_stability,
        # udt_bound_check, fixed_point, the report builders) keep cli.self_s to
        # the CLI's own work
        ("matrixop.essential_band", sites("essential_band", matrixop, cli, verification), None),
        ("matrixop.detM_eigentest", sites("detM_eigentest", matrixop, verification), None),
        ("matrixop.green_kernel", sites("green_kernel", matrixop, verification), None),
        ("matrixop.resolvent_apply", sites("resolvent_apply", matrixop, verification), None),
        ("subsystem.integrate", sites("integrate", subsystem, cli, verification), after_integrate),
        ("subsystem.invariants", sites("hamiltonian", subsystem), None),
        ("subsystem.invariants", sites("invariant_I", subsystem), None),
        ("subsystem.classify_stability", sites("classify_stability", subsystem, cli, verification), None),
        ("subsystem.udt_bound_check", sites("udt_bound_check", subsystem, verification), None),
        ("euler_core.integrate_euler", sites("integrate_euler", euler_core, cli, verification), after_integrate_euler),
        (rhs_span, sites("euler_rhs", euler_core, verification), None),
        ("euler_core.conserved", sites("conserved", euler_core), None),
        ("euler_core.jacobian_check", sites("jacobian_check", euler_core, verification), None),
        ("euler_core.fixed_point", sites("fixed_point", euler_core, cli, verification), None),
        ("lattice.canonical_label", sites("canonical_label", cli, subsystem, verification), None),
        ("lattice.classes_meeting_disk", sites("classes_meeting_disk", cli, verification), None),
        ("lattice.lattice_points_in_disk", sites("lattice_points_in_disk", cli), None),
        ("reporting.to_canonical_json", sites("to_canonical_json", reporting), after_json),
        ("reporting.report", sites("cf_report", reporting), None),
        ("reporting.report", sites("matrix_spectrum_report", reporting), None),
        ("reporting.report", sites("verdict_dict", reporting), None),
        ("reporting.report", sites("trajectory_summary", reporting), None),
    ]
    for name, where, after in patches:
        tracer.patch(name, where, after)
