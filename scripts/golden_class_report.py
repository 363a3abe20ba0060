#!/usr/bin/env python3
"""Figure-ready data for one class, written into --outdir (default
./out_golden) by the CLI commands that compute it:

    eigs_cf.json         eigs-cf --box 0.05,2,0.05,2
    spectrum_matrix.csv  eigs-matrix --format csv, at --n-matrix
    simulate.json        simulate --n-window 40 --steps 2000 (with its summary)
    trajectory.csv       the same run with --format csv
    operator_A.csv       the nonzeros of the 60 x 60 section of A (no command
                         writes this table)

    python scripts/golden_class_report.py --p 1,1 --khat 1,0 --outdir out
"""

import argparse
import pathlib
import sys

import numpy as np

from euler_spectra import cli, reporting
from euler_spectra.contfrac import CFParams
from euler_spectra.lattice import WaveVector
from euler_spectra.matrixop import build


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--p", default="1,1")
    ap.add_argument("--khat", default="1,0")
    ap.add_argument("--gamma", default="1")
    ap.add_argument("--n-matrix", default="400")
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out_golden"))
    args = ap.parse_args(cli._attach_negative_values(sys.argv[1:] if argv is None else argv))

    args.outdir.mkdir(parents=True, exist_ok=True)
    cls = [f"--p={args.p}", f"--khat={args.khat}", f"--gamma={args.gamma}"]
    simulate = ["simulate", "--n-window", "40", "--steps", "2000"]
    runs = {
        "eigs_cf.json": ["eigs-cf", "--box", "0.05,2,0.05,2"],
        "spectrum_matrix.csv": ["eigs-matrix", f"--n-matrix={args.n_matrix}", "--format", "csv"],
        "simulate.json": simulate,
        "trajectory.csv": [*simulate, "--format", "csv"],
    }
    for name, command in runs.items():
        code = cli.main([*command, *cls, "--output", str(args.outdir / name)])
        if code:
            return code

    p, khat = (WaveVector(*map(int, text.split(","))) for text in (args.p, args.khat))
    entries = build("A", CFParams.for_class(khat, p, complex(args.gamma)), 60).entries
    triplets = ((r + 1, c + 1, entries[r, c].real, entries[r, c].imag) for r, c in zip(*np.nonzero(entries)))
    (args.outdir / "operator_A.csv").write_text(reporting.to_csv(("row", "col", "re", "im"), triplets))
    print(f"wrote {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
