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

Its flags and their defaults are

    --p 1,1  --khat 1,0  --gamma 1  --n-matrix 400  --outdir out_golden

Each takes one value, read by the CLI's own splitter (cli.split_argv):
'--khat -1,1' and '--khat=-1,1' are the same, and -h or --help prints this.
"""

import pathlib
import sys

import numpy as np

from euler_spectra import cli, reporting
from euler_spectra.contfrac import CFParams
from euler_spectra.errors import UsageError
from euler_spectra.matrixop import build

DEFAULTS = {"--p": "1,1", "--khat": "1,0", "--gamma": "1", "--n-matrix": "400", "--outdir": "out_golden"}


def main(argv=None):
    try:
        words, given = cli.split_argv(sys.argv[1:] if argv is None else argv, DEFAULTS)
        if "-h" in words or "--help" in words:
            print(__doc__)
            return 0
        if words:
            raise UsageError(f"unexpected argument {words[0]!r}; this script takes flags only")
        args = {**DEFAULTS, **given}
        outdir = pathlib.Path(args["--outdir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create --outdir {outdir}: {exc}") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    cls = [f"{flag}={args[flag]}" for flag in ("--p", "--khat", "--gamma")]
    simulate = ["simulate", "--n-window", "40", "--steps", "2000"]
    runs = {
        "eigs_cf.json": ["eigs-cf", "--box", "0.05,2,0.05,2"],
        "spectrum_matrix.csv": ["eigs-matrix", f"--n-matrix={args['--n-matrix']}", "--format", "csv"],
        "simulate.json": simulate,
        "trajectory.csv": [*simulate, "--format", "csv"],
    }
    for name, command in runs.items():
        code = cli.main([*command, *cls, "--output", str(outdir / name)])
        if code:
            return code

    config = cli.build_config(args)  # the values the CLI read from the same strings
    entries = build("A", CFParams.for_class(config.khat, config.p, config.gamma), 60).entries
    triplets = ((r + 1, c + 1, entries[r, c].real, entries[r, c].imag) for r, c in zip(*np.nonzero(entries)))
    (outdir / "operator_A.csv").write_text(reporting.to_csv(("row", "col", "re", "im"), triplets))
    print(f"wrote {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
