"""Command-line driver emitting figure-ready data.

Commands: classes, eigs-cf, eigs-matrix, band, simulate, euler-sim, verify.
Configuration comes from an optional flat key-value file (dotted keys, e.g.
``sizes.N_matrix=400``) overridden by CLI flags.  JSON is the canonical
output (deterministic: sorted keys, 15 significant digits); ``--format csv``
selects the lossy tabular view where one exists.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from . import reporting
from .contfrac import CFParams, find_eigenvalues, find_eigenvalues_half
from .errors import DomainError, NumericalError, UsageError
from .euler_core import ModeSet, VorticityField, fixed_point, integrate_euler
from .lattice import (
    WaveVector,
    canonical_label,
    classes_meeting_disk,
    lattice_points_in_disk,
)
from .matrixop import build, classify_band_distance, essential_band, truncated_spectrum
from .subsystem import ComplexSeq, SubsystemSpec, classify_stability, integrate
from .verification import run_checks

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    p: WaveVector | None = None
    khat: WaveVector | None = None
    gamma: complex = 1.0 + 0.0j
    root_tol: float = 1e-12
    N_matrix: int = 400
    n_window: int = 40
    K_cutoff: float = 5.0
    grid: int = 20
    scan_radius: float = 3.0
    dt: float = 1e-3
    steps: int = 1000
    eps: float = 0.0
    box: tuple[float, float, float, float] = (1e-3, 4.0, 1e-3, 4.0)
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.root_tol <= 0:
            raise UsageError("tolerance root_tol must be positive")
        if self.N_matrix < 5 or self.N_matrix > 2048:
            raise UsageError("sizes.N_matrix must lie in [5, 2048]")
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown output format {self.format!r}")


_CONFIG_KEYS = {
    "p": ("p", "vector"),
    "khat": ("khat", "vector"),
    "gamma": ("gamma", "complex"),
    "tolerances.root_tol": ("root_tol", "float"),
    "sizes.N_matrix": ("N_matrix", "int"),
    "sizes.n_window": ("n_window", "int"),
    "sizes.K_cutoff": ("K_cutoff", "float"),
    "sizes.grid": ("grid", "int"),
    "sizes.scan_radius": ("scan_radius", "float"),
    "integration.dt": ("dt", "float"),
    "integration.steps": ("steps", "int"),
    "integration.eps": ("eps", "float"),
    "search.box": ("box", "box"),
    "output.path": ("output", "str"),
    "output.format": ("format", "str"),
}


def _parse_vector(text: str) -> WaveVector:
    try:
        k1, k2 = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected 'k1,k2' integers, got {text!r}") from exc
    return WaveVector(k1, k2)


def _parse_box(text: str) -> tuple[float, float, float, float]:
    try:
        a, b, c, d = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected 're0,re1,im0,im1', got {text!r}") from exc
    return (a, b, c, d)


def _coerce(kind: str, raw: str):
    if kind == "vector":
        return _parse_vector(raw)
    if kind == "complex":
        try:
            return complex(raw)
        except ValueError as exc:
            raise UsageError(f"bad complex literal {raw!r}") from exc
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "box":
        return _parse_box(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Flat dotted-key config: one ``key=value`` per line, '#' comments."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                field_name, kind = _CONFIG_KEYS[key]
                try:
                    values[field_name] = _coerce(kind, raw)
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    overrides = {
        "p": args.p,
        "khat": args.khat,
        "gamma": args.gamma,
        "root_tol": args.root_tol,
        "N_matrix": args.n_matrix,
        "n_window": args.n_window,
        "K_cutoff": args.k_cutoff,
        "grid": args.grid,
        "scan_radius": args.scan_radius,
        "dt": args.dt,
        "steps": args.steps,
        "eps": args.eps,
        "box": args.box,
        "output": args.output,
        "format": args.format,
    }
    for name, value in overrides.items():
        if value is not None:
            values[name] = value
    valid = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in values.items() if k in valid})


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"this command requires --{name}")


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(config: RunConfig) -> CFParams:
    _require(config, "p", "khat")
    if config.gamma == 0:
        raise UsageError("gamma is zero: the operator is zero, no spectral data; give a nonzero --gamma")
    params = CFParams.for_class(config.khat, config.p, config.gamma)
    if params.parallel:
        raise UsageError("khat is parallel to p: trivial class, no spectral data")
    return params


def cmd_classes(config: RunConfig) -> int:
    _require(config, "p")
    disk = {lab.khat.as_tuple(): lab for lab in classes_meeting_disk(config.p)}
    scanned = dict(disk)
    for k in lattice_points_in_disk(int(config.scan_radius**2)):
        lab = canonical_label(k, config.p)
        scanned.setdefault(lab.khat.as_tuple(), lab)
    rows = []
    for key in sorted(scanned, key=lambda t: (WaveVector(*t).norm2, t)):
        lab = scanned[key]
        verdict = classify_stability(lab)
        rows.append(
            {
                "khat": lab.khat,
                "parallel": lab.parallel,
                "meets_disk": key in disk,
                "verdict": reporting.verdict_dict(verdict),
            }
        )
    if config.format == "csv":
        lines = ["khat1,khat2,parallel,meets_disk,kind,sigma"]
        for r in rows:
            sigma = "" if r["verdict"]["sigma"] is None else reporting.format_float(r["verdict"]["sigma"])
            lines.append(
                f"{r['khat'].k1},{r['khat'].k2},{str(r['parallel']).lower()},"
                f"{str(r['meets_disk']).lower()},{r['verdict']['kind']},{sigma}"
            )
        _emit(config, "\n".join(lines) + "\n")
    else:
        _emit(config, reporting.to_canonical_json({"p": config.p, "classes": rows}))
    return 0


def _circle_member(khat: WaveVector, p: WaveVector) -> WaveVector | None:
    """The member of khat's class on |k| = |p|, if any.  Members with
    |k| <= |p| lie within 1 of the real minimizer n* of |khat + n p|, and a
    non-parallel class has at most one on the circle (two would make an
    equilateral lattice triangle with p)."""
    n_star = round(-khat.dot(p) / p.norm2)
    near = (khat.plus(n, p) for n in range(n_star - 2, n_star + 3))
    return next((k for k in near if k.norm2 == p.norm2), None)


def cmd_eigs_cf(config: RunConfig) -> int:
    params = _params(config)
    label = canonical_label(config.khat, config.p)
    member = _circle_member(config.khat, config.p)
    search = dict(search_box=config.box, grid=config.grid, tol=config.root_tol)
    if member is None:
        found = [(None, q) for q in find_eigenvalues(params, **search)]
    else:
        # rho vanishes at the member, so the chain splits into two half-chains
        params = CFParams.for_class(member, config.p, config.gamma)
        found = [(side, q) for side in (+1, -1) for q in find_eigenvalues_half(params, side, **search)]
    band = essential_band(params)
    doc = reporting.cf_report(params, label, band, [q for _, q in found])
    if member is not None:
        doc["circle_member"] = member
        for entry, (side, _) in zip(doc["quadruples"], found):
            entry["side"] = side
    if config.format == "csv":
        lines = ["re,im,residual" + ("" if member is None else ",side")]
        for side, q in found:
            lines.append(
                f"{reporting.format_float(q.lambda_tilde.real)},"
                f"{reporting.format_float(q.lambda_tilde.imag)},"
                f"{reporting.format_float(q.residual)}" + ("" if side is None else f",{side}")
            )
        _emit(config, "\n".join(lines) + "\n")
    else:
        _emit(config, reporting.to_canonical_json(doc))
    return 0


def cmd_eigs_matrix(config: RunConfig) -> int:
    params = _params(config)
    label = canonical_label(config.khat, config.p)
    op = build("A", params, config.N_matrix)
    ev = truncated_spectrum(op)
    iso = classify_band_distance(op, ev)
    if config.format == "csv":
        _emit(config, reporting.spectrum_csv(ev, iso))
    else:
        _emit(config, reporting.to_canonical_json(reporting.matrix_spectrum_report(op, label, ev, iso)))
    return 0


def cmd_band(config: RunConfig) -> int:
    params = _params(config)
    label = canonical_label(config.khat, config.p)
    band = essential_band(params)
    if config.format == "csv":
        lines = ["re,im"]
        for e in band.endpoints:
            lines.append(f"{reporting.format_float(e.real)},{reporting.format_float(e.imag)}")
        _emit(config, "\n".join(lines) + "\n")
    else:
        doc = {
            "class": {"khat": label.khat, "p": label.p, "parallel": label.parallel},
            "a": params.a,
            "endpoints": list(band.endpoints),
            "width": band.width,
        }
        _emit(config, reporting.to_canonical_json(doc))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    _require(config, "p", "khat")
    spec = SubsystemSpec(
        khat=config.khat,
        p=config.p,
        gamma=config.gamma,
        n_min=-config.n_window,
        n_max=config.n_window,
    )
    state = ComplexSeq.unit(spec, 0)  # n = 0 is never the excluded origin
    traj = integrate(spec, state, dt=config.dt, steps=config.steps, sample_every=max(1, config.steps // 100))
    if config.format == "csv":
        _emit(config, reporting.trajectory_csv(traj))
    else:
        doc = {
            "class": {"khat": config.khat, "p": config.p},
            "summary": reporting.trajectory_summary(traj),
        }
        _emit(config, reporting.to_canonical_json(doc))
    return 0


def cmd_euler_sim(config: RunConfig) -> int:
    _require(config, "p")
    modeset = ModeSet.disk(config.K_cutoff)
    field = fixed_point(config.p, config.gamma, modeset)
    if config.eps != 0.0:
        _require(config, "khat")
        if config.khat not in modeset:
            raise UsageError(f"perturbation mode {config.khat} outside cutoff {config.K_cutoff}")
        pert = VorticityField.from_dict(modeset, {config.khat: config.eps})
        field = VorticityField(modeset, field.coeffs + pert.coeffs)
    traj = integrate_euler(field, dt=config.dt, steps=config.steps, sample_every=max(1, config.steps // 50))
    if config.format == "csv":
        final = traj.field(len(traj.times) - 1)
        _emit(config, reporting.field_csv(modeset.modes, final.full_vector()))
    else:
        doc = {
            "p": config.p,
            "K_cutoff": config.K_cutoff,
            "eps": config.eps,
            "E_drift": traj.e_drift,
            "J_drift": traj.j_drift,
        }
        _emit(config, reporting.to_canonical_json(doc))
    return 0


def cmd_verify(config: RunConfig) -> int:
    results = run_checks()
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.index}. {r.name}")
        print(f"        {r.detail}")
    if config.output:
        doc = {
            "criteria": [{"index": r.index, "name": r.name, "passed": r.passed} for r in results],
            "all_passed": all(r.passed for r in results),
        }
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(reporting.to_canonical_json(doc))
    return 0 if all(r.passed for r in results) else 3


_COMMANDS = {
    "classes": cmd_classes,
    "eigs-cf": cmd_eigs_cf,
    "eigs-matrix": cmd_eigs_matrix,
    "band": cmd_band,
    "simulate": cmd_simulate,
    "euler-sim": cmd_euler_sim,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with code 2
        raise UsageError(message)


def _make_parser() -> _Parser:
    parser = _Parser(prog="euler-spectra", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat dotted-key config file")
    parser.add_argument("--p", type=_parse_vector, help="pump mode 'p1,p2'")
    parser.add_argument("--khat", type=_parse_vector, help="class member 'k1,k2'")
    parser.add_argument("--gamma", type=complex, help="pump amplitude (complex literal)")
    parser.add_argument("--root-tol", type=float)
    parser.add_argument("--n-matrix", type=int)
    parser.add_argument("--n-window", type=int)
    parser.add_argument("--k-cutoff", type=float)
    parser.add_argument("--grid", type=int)
    parser.add_argument("--scan-radius", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--box", type=_parse_box, help="search box 're0,re1,im0,im1'")
    parser.add_argument("--output", help="write result to this path instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"])
    return parser


_VALUE_FLAGS = ("--p", "--khat", "--box")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--khat -1,1' as '--khat=-1,1'; argparse would read the
    value '-1,1' as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] == "."):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        config = build_config(args)
        return _COMMANDS[args.command](config)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
