"""Command-line driver emitting figure-ready data.

    euler-spectra COMMAND [--config FILE] [--flag VALUE | --flag=VALUE ...]

Commands: classes, eigs-cf, eigs-matrix, band, simulate, euler-sim, verify.
Every flag takes exactly one value, and the token after a flag is its value
even when it starts with '-' (``--khat -1,1``); flags are never abbreviated.
``-h`` or ``--help`` prints this text and the flags.
Configuration comes from an optional flat key-value file (dotted keys, e.g.
``sizes.N_matrix=400``) overridden by CLI flags.  JSON is the canonical
output (deterministic: sorted keys, 15 significant digits); ``--format csv``
selects the lossy tabular view where one exists.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

from . import reporting
from .contfrac import CFParams, find_eigenvalues, find_eigenvalues_half
from .errors import NumericalError, UsageError
from .euler_core import ModeSet, VorticityField, fixed_point, integrate_euler
from .lattice import DISK_CAP, WaveVector, canonical_label, classes_meeting_disk, det, kappa, parallel
from .matrixop import DENSE_CAP, build, classify_band_distance, essential_band, truncated_spectrum
from .subsystem import ComplexSeq, SubsystemSpec, classify_stability, integrate
from .verification import run_checks

__all__ = ["main", "split_argv"]

# euler-sim --format csv prints a final amplitude part below NOISE_UNITS
# rounding units of max|w| as 0.  With a real gamma (eps is real) every
# imaginary part is exactly 0, so those parts measure the rounding noise:
# over 96 runs (four pumps, eps 0.05, -0.3 and 1e-3, cutoffs 5 and 8, 1000
# and 3000 steps of dt 1e-3, gamma 1 and 2.5) the largest was 2.05 units,
# and at most 17.7 at 10000 steps.  An unstable run amplifies the noise past
# any fixed floor, so with a real gamma every imaginary part is printed as 0.
NOISE_UNITS = 64
RK4_BOUND = 2.0 * np.sqrt(2.0)  # RK4's stability interval on the imaginary axis


def _finite(value, text: str):
    if not np.isfinite(value).all():
        raise ValueError(f"{text!r} is not finite")
    return value


def _vector(text: str) -> WaveVector:
    try:
        k1, k2 = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected 'k1,k2' integers, got {text!r}") from None
    return WaveVector(k1, k2)


def _real(text: str) -> float:
    return _finite(float(text), text)


def _complex(text: str) -> complex:
    return _finite(complex(text), text)


def _box(text: str) -> tuple[float, float, float, float]:
    try:
        a, b, c, d = (float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected 're0,re1,im0,im1', got {text!r}") from None
    return _finite((a, b, c, d), text)


def _positive(text: str) -> float:
    value = _real(text)
    if value <= 0:
        raise ValueError(f"must be positive, got {text!r}")
    return value


def _scan_radius(text: str) -> float:
    value = _real(text)
    if not 0 <= value <= DISK_CAP**0.5:  # checked before squaring: 1e300**2 overflows
        raise ValueError(f"scan radius must lie in [0, sqrt(DISK_CAP) = {DISK_CAP**0.5:g}], got {text!r}")
    return value


def _section_size(text: str) -> int:
    n = int(text)
    if not 5 <= n <= DENSE_CAP:
        raise ValueError(f"N_matrix must lie in [5, {DENSE_CAP}], got {n}")
    return n


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"expected json or csv, got {text!r}")
    return text


# option -> (config-file key, parser, default).  The option's flag is
# --option in lower case with '_' -> '-'; a flag overrides its config key,
# which overrides the default.  The search settings root_tol, grid and box
# default to None: eigs-cf then leaves them to contfrac's search defaults.
_OPTIONS = {
    "p": ("p", _vector, None),
    "khat": ("khat", _vector, None),
    "gamma": ("gamma", _complex, 1.0 + 0.0j),
    "root_tol": ("tolerances.root_tol", _positive, None),
    "N_matrix": ("sizes.N_matrix", _section_size, 400),
    "n_window": ("sizes.n_window", int, 40),
    "K_cutoff": ("sizes.K_cutoff", _real, 5.0),
    "grid": ("sizes.grid", int, None),
    "scan_radius": ("sizes.scan_radius", _scan_radius, 3.0),
    "dt": ("integration.dt", _real, 1e-3),
    "steps": ("integration.steps", int, 1000),
    "eps": ("integration.eps", _real, 0.0),
    "box": ("search.box", _box, None),
    "output": ("output.path", str, None),
    "format": ("output.format", _format, "json"),
}
_BY_KEY = {key: (name, parse) for name, (key, parse, _) in _OPTIONS.items()}


def _flag(name: str) -> str:
    return "--" + name.lower().replace("_", "-")


_FLAGS = {"--config", *map(_flag, _OPTIONS)}


def split_argv(argv: list[str], flags) -> tuple[list[str], dict[str, str]]:
    """The words of argv and, by flag, the value of each flag given.  Each
    of flags takes one value, as '--flag value' (even a value that starts
    with '-') or '--flag=value'; the last one given wins.  '-h' and
    '--help' are words; any other token that starts with '-' is a flag."""
    words, values, tokens = [], {}, iter(argv)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not token.startswith("-") or token in ("-h", "--help"):
            words.append(token)
        elif flag not in flags:
            raise UsageError(f"unknown flag {flag!r}; flags are never abbreviated, --help lists them")
        elif not (value := value if equals else next(tokens, "")):
            raise UsageError(f"{flag} needs a value, as {flag} VALUE or {flag}=VALUE")
        else:
            values[flag] = value
    return words, values


def _parse(parse, raw: str, where: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


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
                if key not in _BY_KEY:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                name, parse = _BY_KEY[key]
                values[name] = _parse(parse, raw, f"{path}:{lineno}: bad value for {key}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(values: dict[str, str]) -> SimpleNamespace:
    """Each option's default, overridden from the --config file, then by
    its flag; values holds the raw strings that split_argv gives."""
    config = {name: default for name, (_, _, default) in _OPTIONS.items()}
    if "--config" in values:
        config.update(load_config_file(values["--config"]))
    for name, (_, parse, _) in _OPTIONS.items():
        if (flag := _flag(name)) in values:
            config[name] = _parse(parse, values[flag], f"bad value for {flag}")
    return SimpleNamespace(**config)


def _require(config: SimpleNamespace, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"this command requires --{name}")


def _emit(config: SimpleNamespace, doc: dict, header: tuple[str, ...], rows, stdout: bool = True) -> int:
    """Write doc as canonical JSON, or with --format csv the table of header
    and rows (an iterable read only then), to --output or stdout.  A command
    whose stdout is a text report passes stdout=False: its document goes
    only to --output, and --format csv without --output is a usage error."""
    if not config.output and not stdout:
        if config.format == "csv":
            raise UsageError("this command prints a text report; --format csv needs --output PATH")
        return 0
    if config.format == "csv":
        text = reporting.to_csv(header, rows)
    else:
        text = reporting.to_canonical_json(doc)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {config.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _params(config: SimpleNamespace) -> tuple[CFParams, dict]:
    """The chain parameters of --khat's class, and the "class" and "a"
    fields that open the document of every command about one class."""
    _require(config, "p", "khat")
    params = CFParams.for_class(config.khat, config.p, config.gamma)
    khat = canonical_label(config.khat, config.p)
    return params, {"class": {"khat": khat, "p": config.p, "parallel": parallel(khat, config.p)}, "a": params.a}


def cmd_classes(config: SimpleNamespace) -> int:
    _require(config, "p")
    p = config.p
    members = classes_meeting_disk(p, max(p.norm2, int(config.scan_radius**2)))
    # a class meets the closed disk iff its minimal member does
    classes = [
        {
            "khat": khat,
            "parallel": parallel(khat, p),
            "meets_disk": khat.norm2 <= p.norm2,
            "kappa": 0 if parallel(khat, p) else kappa(khat, p),
            "verdict": {"kind": verdict.kind.value, "sigma": verdict.sigma, "detail": verdict.detail},
        }
        for khat, verdict in zip(members, (classify_stability(khat, p) for khat in members))
    ]
    rows = (
        (*c["khat"].as_tuple(), c["parallel"], c["meets_disk"], c["kappa"], c["verdict"]["kind"], c["verdict"]["sigma"])
        for c in classes
    )
    header = ("khat1", "khat2", "parallel", "meets_disk", "kappa", "kind", "sigma")
    return _emit(config, {"p": config.p, "classes": classes}, header, rows)


def cmd_eigs_cf(config: SimpleNamespace) -> int:
    params, head = _params(config)
    given = dict(search_box=config.box, grid=config.grid, tol=config.root_tol)
    search = {name: value for name, value in given.items() if value is not None}
    header = ("re", "im", "residual")
    if params.circle is None:
        found = [(q, {}) for q in find_eigenvalues(params, **search)]
        circle = {}
    else:
        # rho vanishes at the member, so the chain splits into two half-chains
        circle = {"circle_member": params.circle}
        found = [(q, {"side": side}) for side in (+1, -1) for q in find_eigenvalues_half(params, side, **search)]
        header += ("side",)
    band = essential_band(params)
    quadruples = [
        {"re": q.lambda_tilde.real, "im": q.lambda_tilde.imag, "residual": q.residual, "members": q.members, **tag}
        for q, tag in found
    ]
    doc = {
        **head,
        "band_endpoints": band.endpoints,
        "band_width": band.width,
        "quadruples": quadruples,
        "method": "continued-fraction",
        **circle,
    }
    rows = ([entry[column] for column in header] for entry in quadruples)
    return _emit(config, doc, header, rows)


def cmd_eigs_matrix(config: SimpleNamespace) -> int:
    params, head = _params(config)
    op = build("A", params, config.N_matrix)
    ev = truncated_spectrum(op)
    iso = classify_band_distance(op, ev)
    eigenvalues = [
        {"re": re, "im": im, "kind": "isolated" if isolated else "band"}
        for re, im, isolated in zip(ev.real.tolist(), ev.imag.tolist(), iso.tolist())
    ]
    doc = {
        **head,
        "size": op.size,
        "eigenvalues": eigenvalues,
        "method": "matrix-oracle",
    }
    header = ("re", "im", "kind")
    rows = ([entry[column] for column in header] for entry in eigenvalues)
    return _emit(config, doc, header, rows)


def cmd_band(config: SimpleNamespace) -> int:
    params, head = _params(config)
    band = essential_band(params)
    doc = {
        **head,
        "endpoints": band.endpoints,
        "width": band.width,
    }
    return _emit(config, doc, ("re", "im"), ((e.real, e.imag) for e in band.endpoints))


def cmd_simulate(config: SimpleNamespace) -> int:
    _require(config, "p", "khat")
    spec = SubsystemSpec(
        khat=config.khat,
        p=config.p,
        gamma=config.gamma,
        n_min=-config.n_window,
        n_max=config.n_window,
    )
    # RK4 is stable for |dt lambda| <= RK4_BOUND on the imaginary axis, and
    # the Gershgorin bound s of the chain bounds its spectral radius
    _, cm, cp = spec.tables
    s = float(np.max(np.abs(cm) + np.abs(cp)))
    if abs(config.dt) * s > RK4_BOUND:
        raise UsageError(
            f"dt = {config.dt:g}: |dt| times the chain's coupling bound s = max_n(|cm_n| + |cp_n|) = {s:g} "
            f"exceeds RK4's stability bound 2 sqrt 2 = {RK4_BOUND:g}; give |dt| <= {RK4_BOUND / s:g}"
        )
    state = ComplexSeq.unit(spec, 0)  # n = 0 is never the excluded origin
    traj = integrate(spec, state, dt=config.dt, steps=config.steps, sample_every=max(1, config.steps // 100))
    doc = {
        "class": {"khat": config.khat, "p": config.p},
        "summary": {"H_drift": traj.h_drift, "I_drift": traj.i_drift, "enstrophy_ratio": traj.enstrophy_ratio},
    }
    ns = spec.indices().tolist()
    rows = (
        (t, n, re, im)
        for t, states in zip(traj.times.tolist(), traj.states)
        for n, re, im in zip(ns, states.real.tolist(), states.imag.tolist())
    )
    return _emit(config, doc, ("t", "n", "re", "im"), rows)


def cmd_euler_sim(config: SimpleNamespace) -> int:
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
    doc = {
        "p": config.p,
        "K_cutoff": config.K_cutoff,
        "eps": config.eps,
        "E_drift": traj.e_drift,
        "J_drift": traj.j_drift,
    }
    w = traj.field(len(traj.times) - 1).full_vector()
    floor = NOISE_UNITS * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    re, im = (np.where(np.abs(part) < floor, 0.0, part) for part in (w.real, w.imag))
    if config.gamma.imag == 0:
        im = np.zeros_like(im)
    if config.eps != 0.0 and (d := det(config.p, config.khat)) != 0:
        # triads keep the run on the lattice of k = a p + b khat, integer a and b,
        # which holds exactly when d divides det(k, khat) = a d and det(p, k) = b d
        off = [det(k, config.khat) % d != 0 or det(config.p, k) % d != 0 for k in modeset.modes]
        re, im = (np.where(off, 0.0, part) for part in (re, im))
    rows = ((k.k1, k.k2, r, i) for k, r, i in zip(modeset.modes, re.tolist(), im.tolist()))
    return _emit(config, doc, ("k1", "k2", "re", "im"), rows)


def cmd_verify(config: SimpleNamespace) -> int:
    results = run_checks()
    doc = {
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    header = ("index", "name", "passed")
    _emit(config, doc, header, ([c[column] for column in header] for c in doc["criteria"]), stdout=False)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.index}. {r.name}")
        print(f"        {r.detail}")
    return 0 if doc["all_passed"] else 3


_COMMANDS = {
    "classes": cmd_classes,
    "eigs-cf": cmd_eigs_cf,
    "eigs-matrix": cmd_eigs_matrix,
    "band": cmd_band,
    "simulate": cmd_simulate,
    "euler-sim": cmd_euler_sim,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        words, values = split_argv(sys.argv[1:] if argv is None else argv, _FLAGS)
        if "-h" in words or "--help" in words:
            flags = [f"  {_flag(name):<14}config key {key}" for name, (key, _, _) in _OPTIONS.items()]
            print(__doc__, "flags:", "  --config      a flat dotted-key config file", *flags, sep="\n")
            return 0
        if len(words) != 1 or words[0] not in _COMMANDS:
            got = " ".join(map(repr, words)) or "none"
            raise UsageError(f"give exactly one of the commands {', '.join(_COMMANDS)}; got {got}")
        return _COMMANDS[words[0]](build_config(values))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
