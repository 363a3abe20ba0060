#!/usr/bin/env python3
"""Full spectral report for one class: stability verdict, essential band,
continued-fraction eigenvalues, matrix-oracle spectrum, det-M cross-check,
and a conservation-checked chain simulation.

Writes figure-ready JSON/CSV files into --outdir (default: ./out_golden).

    python scripts/golden_class_report.py --p 1,1 --khat 1,0 --outdir out
"""

import argparse
import pathlib

import numpy as np

from euler_spectra import reporting
from euler_spectra.contfrac import CFParams, find_eigenvalues
from euler_spectra.lattice import WaveVector, canonical_label
from euler_spectra.matrixop import (
    build,
    classify_band_distance,
    detM_eigentest,
    essential_band,
    truncated_spectrum,
)
from euler_spectra.subsystem import ComplexSeq, SubsystemSpec, classify_stability, integrate


def parse_vec(text):
    k1, k2 = (int(s) for s in text.split(","))
    return WaveVector(k1, k2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=parse_vec, default=WaveVector(1, 1))
    ap.add_argument("--khat", type=parse_vec, default=WaveVector(1, 0))
    ap.add_argument("--gamma", type=complex, default=1.0 + 0.0j)
    ap.add_argument("--n-matrix", type=int, default=400)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out_golden"))
    args = ap.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    label = canonical_label(args.khat, args.p)
    params = CFParams.for_class(args.khat, args.p, args.gamma)
    verdict = classify_stability(label)
    print(f"class khat={label.khat.as_tuple()} p={args.p.as_tuple()}: {verdict.kind.value}")

    band = essential_band(params)
    quads = find_eigenvalues(params, search_box=(0.05, 2.0, 0.05, 2.0), grid=20, tol=1e-12)
    doc = reporting.cf_report(params, label, band, quads)
    (args.outdir / "eigs_cf.json").write_text(reporting.to_canonical_json(doc))
    for q in quads:
        lam = params.a * q.lambda_tilde
        print(f"  quadruple rep lambda_tilde = {q.lambda_tilde:.15g}  (lambda = {lam:.15g})")
        print(f"  det-M residual at that root: {abs(detM_eigentest(params, -1j * q.lambda_tilde)):.3e}")

    op = build("A", params, args.n_matrix)
    ev = truncated_spectrum(op)
    iso = classify_band_distance(op, ev)
    tagged = reporting.matrix_spectrum_report(op, label, ev, iso)["eigenvalues"]
    spectrum = ((e["re"], e["im"], e["kind"]) for e in tagged)
    (args.outdir / "spectrum_matrix.csv").write_text(reporting.to_csv(("re", "im", "kind"), spectrum))
    entries = build("A", params, 60).entries
    triplets = ((r + 1, c + 1, entries[r, c].real, entries[r, c].imag) for r, c in zip(*np.nonzero(entries)))
    (args.outdir / "operator_A.csv").write_text(reporting.to_csv(("row", "col", "re", "im"), triplets))
    print(f"  matrix oracle: N={args.n_matrix}, {int(iso.sum())} isolated eigenvalue(s)")

    spec = SubsystemSpec(khat=args.khat, p=args.p, gamma=args.gamma, n_min=-40, n_max=40)
    traj = integrate(spec, ComplexSeq.unit(spec, 0), dt=1e-3, steps=2000, sample_every=50)
    ns = spec.indices()
    samples = ((t, n, w.real, w.imag) for t, row in zip(traj.times, traj.states) for n, w in zip(ns, row))
    (args.outdir / "trajectory.csv").write_text(reporting.to_csv(("t", "n", "re", "im"), samples))
    (args.outdir / "trajectory_summary.json").write_text(
        reporting.to_canonical_json(reporting.trajectory_summary(traj))
    )
    print(
        f"  simulation: H drift {traj.h_drift:.2e}, I drift {traj.i_drift:.2e}, "
        f"enstrophy ratio {traj.enstrophy_ratio:.4f}"
    )
    growth = np.log(traj.enstrophy_ratio) / traj.times[-1] if traj.enstrophy_ratio > 1 else 0.0
    print(f"  rough growth estimate from peak ratio: {growth:.4f}")
    print(f"wrote {args.outdir}/")


if __name__ == "__main__":
    main()
