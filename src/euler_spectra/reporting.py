"""Deterministic serialization: canonical JSON and CSV views.

Identical inputs must produce byte-identical output, so floats are
formatted at a fixed 15 significant digits, dict keys are emitted sorted,
and nothing time- or path-dependent enters the documents.
"""

from __future__ import annotations

import numpy as np

from .contfrac import CFParams, EigenQuadruple
from .errors import UsageError
from .lattice import ClassLabel, WaveVector
from .matrixop import BandSpec, TruncatedOperator
from .subsystem import StabilityVerdict, Trajectory

__all__ = [
    "format_float",
    "to_canonical_json",
    "cf_report",
    "matrix_spectrum_report",
    "trajectory_csv",
    "trajectory_summary",
    "spectrum_csv",
    "field_csv",
    "operator_triplets_csv",
    "verdict_dict",
]


def format_float(x: float) -> str:
    if x != x:
        raise UsageError("refusing to serialize NaN")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.15g}"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return _emit({"im": z.imag, "re": z.real})
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, WaveVector):
        return _emit([obj.k1, obj.k2])
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{_emit(str(k))}:{_emit(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise UsageError(f"no canonical JSON form for {type(obj)!r}")


def to_canonical_json(obj) -> str:
    return _emit(obj) + "\n"


def _class_dict(label: ClassLabel) -> dict:
    return {"khat": label.khat, "p": label.p, "parallel": label.parallel}


def verdict_dict(verdict: StabilityVerdict) -> dict:
    return {"kind": verdict.kind.value, "sigma": verdict.sigma, "detail": verdict.detail}


def cf_report(params: CFParams, label: ClassLabel, band: BandSpec, quads: list[EigenQuadruple]) -> dict:
    return {
        "class": _class_dict(label),
        "a": params.a,
        "band_endpoints": list(band.endpoints),
        "band_width": band.width,
        "quadruples": [
            {
                "re": q.lambda_tilde.real,
                "im": q.lambda_tilde.imag,
                "residual": q.residual,
                "members": list(q.members),
            }
            for q in quads
        ],
        "method": "continued-fraction",
    }


def matrix_spectrum_report(
    op: TruncatedOperator, label: ClassLabel, eigenvalues: np.ndarray, isolated: np.ndarray
) -> dict:
    return {
        "class": _class_dict(label),
        "a": op.params.a,
        "size": op.size,
        "eigenvalues": [
            {"re": ev.real, "im": ev.imag, "kind": "isolated" if iso else "band"}
            for ev, iso in zip(eigenvalues, isolated)
        ],
        "method": "matrix-oracle",
    }


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,n,re,im"]
    ns = traj.spec.indices()
    for t, row in zip(traj.times, traj.states):
        for n, w in zip(ns, row):
            lines.append(
                f"{format_float(float(t))},{int(n)},{format_float(w.real)},{format_float(w.imag)}"
            )
    return "\n".join(lines) + "\n"


def trajectory_summary(traj: Trajectory) -> dict:
    return {
        "H_drift": traj.h_drift,
        "I_drift": traj.i_drift,
        "enstrophy_ratio": traj.enstrophy_ratio,
    }


def spectrum_csv(eigenvalues: np.ndarray, isolated: np.ndarray) -> str:
    lines = ["re,im,kind"]
    for ev, iso in zip(eigenvalues, isolated):
        lines.append(f"{format_float(ev.real)},{format_float(ev.imag)},{'isolated' if iso else 'band'}")
    return "\n".join(lines) + "\n"


def field_csv(modes, values) -> str:
    lines = ["k1,k2,re,im"]
    for k, w in zip(modes, values):
        lines.append(f"{k.k1},{k.k2},{format_float(w.real)},{format_float(w.imag)}")
    return "\n".join(lines) + "\n"


def operator_triplets_csv(op: TruncatedOperator) -> str:
    lines = ["row,col,re,im"]
    rows, cols = np.nonzero(op.entries)
    for r, c in zip(rows, cols):
        v = op.entries[r, c]
        lines.append(f"{r + 1},{c + 1},{format_float(v.real)},{format_float(v.imag)}")
    return "\n".join(lines) + "\n"
