import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import euler_spectra.cli as cli
import euler_spectra.verification as verification
from euler_spectra.cli import main
from euler_spectra.lattice import WaveVector, canonical_label, det
from euler_spectra.subsystem import classify_stability
from euler_spectra.verification import CheckResult


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_band_command(capsys):
    code, out, _ = run_cli(capsys, "band", "--p", "1,1", "--khat", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == -0.5
    assert doc["width"] == 1
    assert sorted(e["im"] for e in doc["endpoints"]) == [-0.5, 0.5]


def test_eigs_cf_contains_benchmark_representative(capsys):
    code, out, _ = run_cli(
        capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0",
        "--box", "0.05,1,0.05,1", "--grid", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "continued-fraction"
    assert len(doc["quadruples"]) == 1
    q = doc["quadruples"][0]
    # agrees with the published 14-digit value to its actual precision
    assert abs(q["re"] - 0.24822302478255) < 1e-7
    assert abs(q["im"] - 0.35172076526520) < 1e-7


def test_eigs_cf_deterministic_bytes(capsys):
    args = ("eigs-cf", "--p", "1,1", "--khat", "1,0", "--box", "0.05,1,0.05,1", "--grid", "6")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_classes_command_matches_narrative(capsys):
    code, out, _ = run_cli(capsys, "classes", "--p", "1,1")
    assert code == 0
    doc = json.loads(out)
    undetermined = [
        c["khat"] for c in doc["classes"] if c["verdict"]["kind"] == "Undetermined"
    ]
    assert sorted(map(tuple, undetermined)) == [(0, 1), (1, 0)]
    parallel = [c for c in doc["classes"] if c["parallel"]]
    assert len(parallel) == 1 and parallel[0]["meets_disk"]
    other_kinds = {
        c["verdict"]["kind"]
        for c in doc["classes"]
        if tuple(c["khat"]) not in {(0, 1), (1, 0)}
    }
    assert other_kinds <= {"ParallelTrivial", "StableUDT", "StableHalfClassBoth"}


def test_eigs_matrix_csv(capsys):
    code, out, _ = run_cli(
        capsys, "eigs-matrix", "--p", "1,1", "--khat", "1,0",
        "--n-matrix", "200", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,kind"
    assert sum(1 for line in lines[1:] if line.endswith(",isolated")) == 4


def test_simulate_summary(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "1,1", "--khat", "3,0",
        "--n-window", "10", "--dt", "0.01", "--steps", "50",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["H_drift"] < 1e-10
    assert doc["summary"]["I_drift"] < 1e-10


@pytest.mark.parametrize("p", ["1,1", "2,1"])
@pytest.mark.parametrize("gamma", ["0.6+0.8j", "-0.3+1.7j"])
def test_simulate_h_drift_from_a_zero_hamiltonian(capsys, p, gamma):
    # the unit start state has H(0) = 0 exactly, so its drift is rounding
    # noise taken relative to the bound of |H| at t = 0
    code, out, _ = run_cli(capsys, "simulate", "--p", p, "--khat", "1,0", "--gamma", gamma)
    assert code == 0
    assert json.loads(out)["summary"]["H_drift"] < 1e-12


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "1,1", "--khat", "3,0",
        "--n-window", "5", "--dt", "0.01", "--steps", "10", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,n,re,im"
    assert len(lines) == 1 + 11 * 11  # steps + 1 samples of the 11-member window


def test_euler_sim(capsys):
    code, out, _ = run_cli(
        capsys, "euler-sim", "--p", "1,1", "--k-cutoff", "4",
        "--dt", "0.01", "--steps", "20",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["E_drift"] < 1e-10
    assert doc["J_drift"] < 1e-10


def test_euler_sim_with_perturbation(capsys):
    code, out, _ = run_cli(
        capsys, "euler-sim", "--p", "1,1", "--khat", "1,0", "--eps", "1e-6",
        "--k-cutoff", "4", "--dt", "0.01", "--steps", "20", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "k1,k2,re,im"
    # perturbation mode outside the cutoff is a usage error
    code, _, err = run_cli(
        capsys, "euler-sim", "--p", "1,1", "--khat", "9,0", "--eps", "1e-6",
        "--k-cutoff", "4", "--dt", "0.01", "--steps", "5",
    )
    assert code == 1 and "outside cutoff" in err


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark class\n"
        "p=1,1\n"
        "khat=1,0\n"
        "sizes.grid=5\n"
        "search.box=0.05,1,0.05,1\n"
        "tolerances.root_tol=1e-12\n"
    )
    code, out, _ = run_cli(capsys, "eigs-cf", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)["quadruples"]) == 1

    out_path = tmp_path / "result.json"
    code, stdout, _ = run_cli(
        capsys, "eigs-cf", "--config", str(cfg), "--output", str(out_path)
    )
    assert code == 0 and stdout == ""
    assert len(json.loads(out_path.read_text())["quadruples"]) == 1


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "band", "--p", "1,1")[0] == 1  # missing khat
    assert run_cli(capsys, "band", "--p", "1,1", "--khat", "2,2")[0] == 1  # parallel
    assert run_cli(capsys, "band", "--p", "oops", "--khat", "1,0")[0] == 1
    code, _, err = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--n-matrix", "9999")
    assert code == 1 and "N_matrix" in err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("eigs-cf", "--p", "1,1", "--khat", "1,0", "--grid=100000"), "GRID_CAP = 256"),
        (("simulate", "--p", "1,1", "--khat", "1,0", "--n-window=2147483648"), "WINDOW_CAP = 65536"),
        (("euler-sim", "--p", "1,1", "--k-cutoff=1e300"), "CUTOFF_CAP = 64"),
        (("euler-sim", "--p", "1,1", "--k-cutoff=1e8"), "CUTOFF_CAP = 64"),
        (("simulate", "--p", "1,1", "--khat", "1,0", "--steps=2147483648"), "STEPS_CAP = 1048576"),
        (("euler-sim", "--p", "1,1", "--steps=2147483648"), "STEPS_CAP = 1048576"),
        (("classes", "--p", "1,1", "--scan-radius", "1e300"), "DISK_CAP"),
        (("classes", "--p", "64,1"), "DISK_CAP = 4096"),
    ],
)
def test_sizes_past_their_cap_are_usage_errors(capsys, argv, cap):
    # refused before anything of that size is allocated or walked
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and cap in err


def test_grid_below_one_is_a_usage_error(capsys):
    for grid in ("0", "-3"):
        code, out, err = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--grid", grid)
        assert code == 1 and out == ""
        assert "grid" in err


def test_eigs_cf_forwards_only_the_search_settings_given(capsys, monkeypatch):
    # an unset box, grid or tolerance is left to contfrac's defaults
    seen = []

    def record(params, side, **search):
        seen.append(search)
        return []

    monkeypatch.setattr(cli, "find_eigenvalues_half", record)
    assert run_cli(capsys, "eigs-cf", "--p=2,1", "--khat=2,-1")[0] == 0
    assert seen == [{}, {}]
    seen.clear()
    assert run_cli(capsys, "eigs-cf", "--p=2,1", "--khat=2,-1", "--grid", "3")[0] == 0
    assert seen == [{"grid": 3}, {"grid": 3}]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sizes.bogus=1\n")
    code, _, err = run_cli(capsys, "classes", "--config", str(cfg), "--p", "1,1")
    assert code == 1
    assert "bogus" in err


def test_verify_exit_codes(monkeypatch, capsys):
    good = [CheckResult(1, "stub", True, "ok", 0.0)]
    monkeypatch.setattr(cli, "run_checks", lambda: good)
    assert run_cli(capsys, "verify")[0] == 0

    bad = [CheckResult(1, "stub", True, "ok", 0.0), CheckResult(2, "stub2", False, "no", 0.0)]
    monkeypatch.setattr(cli, "run_checks", lambda: bad)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert "[FAIL] 2." in out


def test_verify_output_follows_format(monkeypatch, capsys, tmp_path):
    results = [CheckResult(1, "stub", True, "ok", 0.0), CheckResult(2, "stub2", False, "no", 0.0)]
    monkeypatch.setattr(cli, "run_checks", lambda: results)
    path = tmp_path / "criteria.csv"
    code, out, _ = run_cli(capsys, "verify", "--format", "csv", "--output", str(path))
    assert code == 3
    assert "[FAIL] 2." in out
    assert path.read_text() == "index,name,passed\n1,stub,true\n2,stub2,false\n"

    path = tmp_path / "criteria.json"
    assert run_cli(capsys, "verify", "--output", str(path))[0] == 3
    doc = json.loads(path.read_text())
    assert doc["all_passed"] is False and [c["passed"] for c in doc["criteria"]] == [True, False]

    # the text report owns stdout, so a CSV table needs a file
    code, out, err = run_cli(capsys, "verify", "--format", "csv")
    assert code == 1 and out == ""
    assert "--output" in err


def test_verify_reports_a_check_that_raises_as_failed(monkeypatch, capsys):
    # checks 2 and 8 take the golden root from a search that now finds none
    monkeypatch.setattr(verification, "find_eigenvalues", lambda *args, **kwargs: [])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert "[FAIL] 2." in out and "[FAIL] 8." in out
    assert out.count("NumericalError: expected one quadruple, found 0") == 2



@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (("band", "--p", "1,1"), 1, "usage error: "),
        (("simulate", "--p", "1,1", "--khat", "1,0", "--dt", "1", "--steps", "3000"), 2, "numerical failure: "),
    ],
)
def test_exit_codes_at_the_process_boundary(argv, code, prefix):
    # __main__ hands main's return value to sys.exit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-m", "euler_spectra", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == code and run.stdout == ""
    assert run.stderr.startswith(prefix)


def test_blowups_exit_2(capsys):
    # the golden class grows like e^{0.124 t}; dt = 1 lies inside RK4's
    # stability bound (dt <= 5.67 there), so the overflow is the chain's own.
    # Finite state, overflowing invariant series
    code, out, err = run_cli(capsys, "simulate", "--p", "1,1", "--khat", "1,0", "--dt", "1", "--steps", "3000")
    assert code == 2 and out == "" and "drift is not finite" in err
    # non-finite state
    code, out, err = run_cli(capsys, "simulate", "--p", "1,1", "--khat", "1,0", "--dt", "1", "--steps", "6000")
    assert code == 2 and out == "" and "non-finite state" in err
    code, out, err = run_cli(capsys, "euler-sim", "--p", "1,1", "--gamma", "1e160", "--k-cutoff", "4", "--steps", "5")
    assert code == 2 and out == "" and "E drift is not finite" in err


def test_a_chain_blow_up_names_its_first_non_finite_step(capsys):
    # a loop that checks every step finds the state non-finite first at step 5722
    code, out, err = run_cli(capsys, "simulate", "--p", "1,1", "--khat", "1,0", "--dt", "1", "--steps", "6000")
    assert (code, out, err) == (2, "", "numerical failure: non-finite state at step 5722\n")


def test_simulate_refuses_a_dt_past_rk4s_stability_bound(capsys):
    # s = max_n(|cm_n| + |cp_n|) bounds the chain's spectral radius, and RK4
    # is stable on the imaginary axis for |dt lambda| <= 2 sqrt 2.  This
    # class is stable, yet at dt = 2 its run grew I by 4e10 and exited 0
    argv = ("simulate", "--p", "1,1", "--khat", "2,-1", "--steps", "50")
    for dt in ("2", "-2", "1.887"):
        code, out, err = run_cli(capsys, *argv, "--dt", dt)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: dt = {dt}: |dt| times the chain's coupling bound ")
        assert "s = max_n(|cm_n| + |cp_n|) = 1.49904 exceeds" in err and "2 sqrt 2 = 2.82843" in err
        assert err.endswith("give |dt| <= 1.88683\n")
    code, out, _ = run_cli(capsys, *argv, "--dt", "1.886")
    assert code == 0 and json.loads(out)["summary"]["enstrophy_ratio"] == 1


def test_a_rho_that_rounds_to_zero_exits_2(capsys):
    # the member (5, -2^31) is off the circle, |k|^2 - |p|^2 = 9, but near
    # 2^62 the two reciprocals round to one float: its rho is exactly 0
    code, out, err = run_cli(capsys, "eigs-cf", "--p=-4,2147483648", "--khat=1,0")
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: rho_-1 = 0 in floating point at the member (5, -2147483648)")


def test_eigs_cf_of_a_far_member_is_that_of_its_class(capsys):
    # (1,0) + (10^17 + 12345) p: the nearest member index is rounded in
    # exact integers, so the far member finds its class
    far = run_cli(capsys, "eigs-cf", "--p", "3,1", "--khat", "300000000000037036,100000000000012345")
    assert far == run_cli(capsys, "eigs-cf", "--p", "3,1", "--khat", "1,0")
    assert far[0] == 0 and json.loads(far[1])["quadruples"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eigs-matrix", "--p=1,99999999999999999999", "--khat=1,0", "--n-matrix", "5"],
        # s = 5e19 here, so RK4 needs dt <= 5.7e-20
        ["simulate", "--p=1,99999999999999999999", "--khat=1,0", "--n-window", "3", "--steps", "2", "--dt", "1e-20"],
    ],
)
def test_a_pump_past_int64_gets_an_answer(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["class"]["p"] == [1, 99999999999999999999]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--p", "1,1", "--khat", "1,0"), "a5d56f614fcbaaf261d6daa8ad1e179b2089689a44506e32ef55567cd984908c"),
        (("--p=2,1", "--khat=2,-1"), "96462b9e0d7b51dc3b54e270a46dae4472446d78e45b2e2de0d769098e6f346e"),
        (
            ("--p", "3,1", "--khat", "0,1", "--format", "csv"),
            "2ff6058aec4609537612cc07c24e2eff8bda69f5ef028fc7afa3636e278f88e0",
        ),
        (("--p=10,0", "--khat=1,3"), "19583ae037b6ccda6118844742d0aca715d5109e4642bcaec1c098ae40c383c7"),
    ],
)
def test_eigs_cf_output_bytes_are_pinned(capsys, argv, digest):
    # digests of the output when each tail ran in a sweep of its own and
    # divided by rho_n: the paired sweep and its 1/rho table keep every bit
    code, out, _ = run_cli(capsys, "eigs-cf", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("simulate", "--p", "1,1", "--khat", "1,0"), "b0de0fb3ae981ed2f0220ff0de9b82bbba77154e91f1b8ea90a678088e7604cd"),
        (
            ("simulate", "--p", "1,1", "--khat", "1,0", "--format", "csv"),
            "ae844aa344641503bda5be05c33b005174d1b0c5e5f35d63f987f9400b96967f",
        ),
        (
            ("simulate", "--p", "2,1", "--khat", "0,1", "--n-window", "40", "--steps", "3000"),
            "647d3817f985582525654b5596dc43cb3b40a57c1e9b1a411c0a202dbe68e4a9",
        ),
        (
            ("euler-sim", "--p", "1,1", "--khat", "1,0", "--eps", "0.05"),
            "b5e293be3f49df925e1896955fdd660bdc451018344729ddd95a7de3fcce7e52",
        ),
        (
            ("euler-sim", "--p", "2,1", "--khat", "1,0", "--eps", "0.3", "--k-cutoff", "8", "--steps", "2000")
            + ("--format", "csv"),
            "c6c3e0aa5e6e5cb8ee8c61f27555dbfce59f2aa2cb3b3b772746b7f6fe6ce513",
        ),
    ],
)
def test_simulate_and_euler_sim_output_bytes_are_pinned(capsys, argv, digest):
    # digests of the output when both integrators allocated a new state
    # each step and checked it for finiteness after every step
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_negative_vectors_without_equals_sign(capsys):
    code, out, _ = run_cli(capsys, "band", "--p", "1,1", "--khat", "-1,1")
    assert code == 0
    assert json.loads(out)["class"]["khat"] == [-1, 1]
    code, plain, _ = run_cli(capsys, "band", "--p", "-1,-1", "--khat", "-1,0")
    assert code == 0
    assert plain == run_cli(capsys, "band", "--p=-1,-1", "--khat=-1,0")[1]
    box = ("eigs-cf", "--p", "1,1", "--khat", "1,0", "--grid", "4")
    code, plain, _ = run_cli(capsys, *box, "--box", "-0.5,1,0.05,1")
    assert code == 0
    assert plain == run_cli(capsys, *box, "--box=-0.5,1,0.05,1")[1]
    # a missing value is still a usage error
    assert run_cli(capsys, "band", "--p", "1,1", "--khat", "--gamma", "1")[0] == 1


def test_eigs_cf_routes_circle_classes_to_the_half_chains(capsys):
    # p=2,1: the class of khat=2,-1 has its member (2,-1) on |k| = |p|
    args = ("eigs-cf", "--p", "2,1", "--khat", "2,-1", "--box", "0.05,2,0.05,2", "--grid", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["circle_member"] == [2, -1]
    assert doc["class"]["khat"] == [0, -2]
    [quad] = doc["quadruples"]  # nothing on side +1
    assert quad["side"] == -1
    assert (quad["re"], quad["im"]) == (0.0411649532416021, 0)
    assert sorted(m["re"] for m in quad["members"]) == [-0.0411649532416021, 0.0411649532416021]
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["re,im,residual,side", "0.0411649532416021,0,0,-1"]
    # a class without a circle member keeps its columns
    code, out, _ = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--box", "0.05,1,0.05,1", "--grid", "4", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "re,im,residual"


def test_eigs_cf_real_root_representative_is_on_the_axis(capsys):
    # p=2,1 khat=-1,1: side -1 has a real pair whose Newton iterates keep an
    # imaginary part of ~5e-29 rounding noise
    args = ("eigs-cf", "--p", "2,1", "--khat=-1,1", "--box", "0.05,2,0.05,2", "--grid", "12")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    [quad] = json.loads(out)["quadruples"]
    assert quad["side"] == -1
    assert (quad["re"], quad["im"]) == (0.136886017330697, 0)
    assert [(m["re"], m["im"]) for m in quad["members"]] == [(0.136886017330697, 0), (-0.136886017330697, 0)]


def test_euler_sim_negative_eps_perturbs(capsys):
    code, _, err = run_cli(
        capsys, "euler-sim", "--p", "1,1", "--khat", "9,9", "--eps", "-0.05",
        "--k-cutoff", "4", "--dt", "0.01", "--steps", "5",
    )
    assert code == 1 and "outside cutoff" in err
    base = ("euler-sim", "--p", "1,1", "--khat", "1,0", "--k-cutoff", "4", "--dt", "0.01", "--steps", "20", "--format", "csv")
    unperturbed = run_cli(capsys, *base)[1]
    code, out, _ = run_cli(capsys, *base, "--eps", "-0.05")
    assert code == 0 and out != unperturbed


def test_malformed_config_number_is_a_usage_error(tmp_path, capsys):
    for line, key in (("sizes.grid=abc", "sizes.grid"), ("integration.dt=fast", "integration.dt")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"p=1,1\n{line}\n")
        code, out, err = run_cli(capsys, "classes", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and f"{cfg}:2" in err and key in err


def test_zero_gamma_is_not_reported_as_parallel(capsys):
    for command in ("eigs-cf", "eigs-matrix", "band"):
        code, out, err = run_cli(capsys, command, "--p", "1,1", "--khat", "1,0", "--gamma", "0")
        assert code == 1 and out == ""
        assert "gamma is zero" in err and "parallel" not in err


def test_gamma_past_the_float_range_is_a_usage_error(capsys):
    # 4|a| bounds the band width and every section eigenvalue: once it
    # overflows, band would print an infinity or fail on a NaN (the last
    # gamma has finite parts but no finite modulus)
    for p, khat, gamma in (("1,0", "0,2", "1e308"), ("5,1", "0,1", "1e308"), ("1,1", "1,0", "1.7e308+1.7e308j")):
        code, out, err = run_cli(capsys, "band", "--p", p, "--khat", khat, "--gamma", gamma)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and "give a smaller gamma" in err


@pytest.mark.parametrize(
    "argv, flag, key, value",
    [
        (("euler-sim", "--p", "1,1"), "--k-cutoff", "sizes.K_cutoff", "nan"),
        (("classes", "--p", "1,1"), "--scan-radius", "sizes.scan_radius", "nan"),
        (("eigs-matrix", "--p", "1,1", "--khat", "1,0", "--n-matrix", "5"), "--gamma", "gamma", "nan"),
        (("eigs-cf", "--p", "1,1", "--khat", "1,0"), "--root-tol", "tolerances.root_tol", "nan"),
        (("eigs-cf", "--p", "1,1", "--khat", "1,0"), "--box", "search.box", "0.1,inf,0.1,1"),
        (("simulate", "--p", "1,1", "--khat", "3,0", "--steps", "5"), "--dt", "integration.dt", "nan"),
    ],
)
def test_non_finite_values_are_usage_errors(tmp_path, capsys, argv, flag, key, value):
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and flag in err and "not finite" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert f"{cfg}:1" in err and key in err and "not finite" in err


def test_eigs_cf_searches_from_a_minimal_member(capsys):
    # khat=-6,-2 is the member 0,1 shifted by -3 p; searched from there the
    # grid-8 seeds miss the quadruple
    args = ("eigs-cf", "--p=2,1", "--box", "0.05,2,0.05,2", "--grid", "8")
    code, far, _ = run_cli(capsys, *args, "--khat=-6,-2")
    assert code == 0
    assert far == run_cli(capsys, *args, "--khat=0,1")[1]
    [quad] = json.loads(far)["quadruples"]
    assert (quad["re"], quad["im"]) == (0.111547350886948, 0.0929885972226853)


@pytest.mark.parametrize("tol", ["0.03", "1e-4", "1e-17"])
def test_eigs_cf_refuses_a_root_tol_past_the_band_tube(capsys, tol):
    # roots within 10 root_tol of an axis are snapped onto it: at 0.03 the
    # golden root (0.248, 0.352) landed on the origin, on the band, and
    # eigs-cf printed no quadruple with exit 0; at 1e-17, below the rounding
    # error of f, it printed none either
    code, out, err = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--root-tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "0.0001" in err
    code, out, _ = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--root-tol", "1e-5")
    assert code == 0 and len(json.loads(out)["quadruples"]) == 1


def test_euler_sim_csv_prints_no_rounding_noise(capsys):
    # with a real gamma every imaginary part is exactly 0; a part below
    # NOISE_UNITS rounding units of the largest amplitude is printed as 0
    code, out, _ = run_cli(capsys, "euler-sim", "--p", "1,1", "--khat", "1,0", "--eps", "0.05", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "k1,k2,re,im" and len(rows) == 80
    cells = [row.split(",") for row in rows]
    assert all(im == "0" for *_, im in cells)
    parts = [float(part) for *_, re, im in cells for part in (re, im)]
    floor = cli.NOISE_UNITS * np.finfo(float).eps * max(abs(float(re)) for *_, re, _ in cells)
    assert all(part == 0.0 or abs(part) >= floor for part in parts)
    assert sum(part == 0.0 for part in parts) == 84


def test_euler_sim_csv_prints_a_real_gamma_run_as_real(capsys):
    # an unstable run amplifies the rounding noise in the imaginary parts
    # to about 2.6e4 rounding units of max|w|, past the NOISE_UNITS floor;
    # with a real gamma and a real eps the exact run is real
    args = ["--p", "1,2", "--khat=-1,1", "--eps", "-0.3", "--gamma", "2.5", "--k-cutoff", "5", "--dt", "0.01"]
    code, out, _ = run_cli(capsys, "euler-sim", *args, "--steps", "3000", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "k1,k2,re,im" and len(rows) == 80
    assert all(row.split(",")[3] == "0" for row in rows)


def test_euler_sim_csv_prints_off_lattice_modes_as_zero(capsys):
    # p = (1,2) and khat = (-1,1) span the modes with k1 + k2 divisible by
    # 3; triads never reach the others, and the unstable run's rounding
    # noise there (up to 3e-12) is printed as 0
    args = ["--p", "1,2", "--khat=-1,1", "--eps", "-0.3", "--gamma", "2.5", "--k-cutoff", "5", "--dt", "0.01"]
    code, out, _ = run_cli(capsys, "euler-sim", *args, "--steps", "3000", "--format", "csv")
    assert code == 0
    cells = [row.split(",") for row in out.splitlines()[1:]]
    off = [cell[2:] for cell in cells if (int(cell[0]) + int(cell[1])) % 3 != 0]
    assert len(off) == 56 and all(part == "0" for parts in off for part in parts)
    assert any(float(cell[2]) != 0.0 for cell in cells if (int(cell[0]) + int(cell[1])) % 3 == 0)


def _json_of(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@given(
    st.sampled_from([(1, 1), (2, 1), (1, 0), (2, 2), (3, 1)]).map(lambda p: WaveVector(*p)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
@settings(max_examples=10, deadline=None)
def test_class_answers_do_not_depend_on_the_member(p, k1, k2, n):
    khat = WaveVector(k1, k2)
    assume(det(p, khat) != 0)
    shifted = khat.plus(n, p)
    verdicts = [classify_stability(canonical_label(k, p)) for k in (khat, shifted)]
    assert verdicts[0] == verdicts[1]
    box = ("--box", "0.05,2,0.05,2", "--grid", "8")
    docs = [_json_of("eigs-cf", f"--p={p.k1},{p.k2}", f"--khat={k.k1},{k.k2}", *box) for k in (khat, shifted)]
    quads, moved = docs[0]["quadruples"], docs[1]["quadruples"]
    assert len(quads) == len(moved)
    for q, m in zip(quads, moved):
        assert q.get("side") == m.get("side")
        assert abs(complex(q["re"], q["im"]) - complex(m["re"], m["im"])) < 1e-12
    for q in quads + moved:
        assert q["re"] >= 0 and q["im"] >= 0
        members = [complex(z["re"], z["im"]) for z in q["members"]]
        for z in members:
            for image in (-z, z.conjugate()):
                assert min(abs(image - u) for u in members) < 1e-11


# Exact stdout of the output path, taken from the JSON and CSV views of
# three commands.  classes and band print only exact rational arithmetic.
_CLASSES_JSON = (
    '{"classes":['
    '{"kappa":2,"khat":[0,1],"meets_disk":true,"parallel":false,"verdict":{"detail":"class meets the open disk","kind":"Undetermined","sigma":null}},'
    '{"kappa":2,"khat":[1,0],"meets_disk":true,"parallel":false,"verdict":{"detail":"class meets the open disk","kind":"Undetermined","sigma":null}},'
    '{"kappa":0,"khat":[-1,1],"meets_disk":true,"parallel":false,"verdict":{"detail":"both half-chains stable; n=0 only driven","kind":"StableHalfClassBoth","sigma":2}},'
    '{"kappa":0,"khat":[1,-1],"meets_disk":true,"parallel":false,"verdict":{"detail":"both half-chains stable; n=0 only driven","kind":"StableHalfClassBoth","sigma":2}},'
    '{"kappa":0,"khat":[1,1],"meets_disk":true,"parallel":true,"verdict":{"detail":"khat parallel to p: zero dynamics","kind":"ParallelTrivial","sigma":null}},'
    '{"kappa":0,"khat":[-1,2],"meets_disk":false,"parallel":false,"verdict":{"detail":"class misses closed disk; enstrophy bound sigma=1.6666666666666667","kind":"StableUDT","sigma":1.66666666666667}},'
    '{"kappa":0,"khat":[2,-1],"meets_disk":false,"parallel":false,"verdict":{"detail":"class misses closed disk; enstrophy bound sigma=1.6666666666666667","kind":"StableUDT","sigma":1.66666666666667}},'
    '{"kappa":0,"khat":[-2,2],"meets_disk":false,"parallel":false,"verdict":{"detail":"class misses closed disk; enstrophy bound sigma=1.3333333333333333","kind":"StableUDT","sigma":1.33333333333333}},'
    '{"kappa":0,"khat":[2,-2],"meets_disk":false,"parallel":false,"verdict":{"detail":"class misses closed disk; enstrophy bound sigma=1.3333333333333333","kind":"StableUDT","sigma":1.33333333333333}}'
    '],"p":[1,1]}\n'
)
_CLASSES_CSV = (
    "khat1,khat2,parallel,meets_disk,kappa,kind,sigma\n"
    "0,1,false,true,2,Undetermined,\n"
    "1,0,false,true,2,Undetermined,\n"
    "-1,1,false,true,0,StableHalfClassBoth,2\n"
    "1,-1,false,true,0,StableHalfClassBoth,2\n"
    "1,1,true,true,0,ParallelTrivial,\n"
    "-1,2,false,false,0,StableUDT,1.66666666666667\n"
    "2,-1,false,false,0,StableUDT,1.66666666666667\n"
    "-2,2,false,false,0,StableUDT,1.33333333333333\n"
    "2,-2,false,false,0,StableUDT,1.33333333333333\n"
)
_BAND_JSON = (
    '{"a":-0.5,"class":{"khat":[1,0],"p":[1,1],"parallel":false},'
    '"endpoints":[{"im":-0.5,"re":0},{"im":0.5,"re":0}],"width":1}\n'
)
_BAND_CSV = "re,im\n0,-0.5\n0,0.5\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("classes", "--p", "1,1"), _CLASSES_JSON),
        (("classes", "--p", "1,1", "--format", "csv"), _CLASSES_CSV),
        (("band", "--p", "1,1", "--khat", "1,0"), _BAND_JSON),
        (("band", "--p", "1,1", "--khat", "1,0", "--format", "csv"), _BAND_CSV),
    ],
)
def test_output_bytes(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected


# eigs-cf's root digits and residual come out of floating-point Newton
# steps; each is masked to '#' and compared to within 1e-14, the rest of
# the text byte for byte
_ROUNDED = re.compile(r"-?\d\.\d{10,}(?:e-\d+)?")
_EIGS_CF_JSON = (
    '{"a":-0.5,"band_endpoints":[{"im":-0.5,"re":0},{"im":0.5,"re":0}],"band_width":1,'
    '"class":{"khat":[1,0],"p":[1,1],"parallel":false},"method":"continued-fraction",'
    '"quadruples":[{"im":0.351720764585447,"members":['
    '{"im":0.351720764585447,"re":0.248223018041107},{"im":-0.351720764585447,"re":0.248223018041107},'
    '{"im":0.351720764585447,"re":-0.248223018041107},{"im":-0.351720764585447,"re":-0.248223018041107}'
    '],"re":0.248223018041107,"residual":1.24126707662364e-16}]}\n'
)
_EIGS_CF_CSV = "re,im,residual\n0.248223018041107,0.351720764585447,1.24126707662364e-16\n"


@pytest.mark.parametrize("fmt, expected", [("json", _EIGS_CF_JSON), ("csv", _EIGS_CF_CSV)])
def test_eigs_cf_output_bytes(capsys, fmt, expected):
    argv = ("eigs-cf", "--p", "1,1", "--khat", "1,0", "--box", "0.05,1,0.05,1", "--grid", "6")
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    _same_but_digits(out, expected)


def _same_but_digits(out: str, expected: str) -> None:
    """out is expected byte for byte, except that each rounded float is
    masked to '#' and compared to within 1e-14."""
    assert _ROUNDED.sub("#", out) == _ROUNDED.sub("#", expected)
    got, want = ([float(x) for x in _ROUNDED.findall(text)] for text in (out, expected))
    assert got == pytest.approx(want, abs=1e-14)


# the N = 60 section of the golden class: one row per eigenvalue by
# ascending imaginary part; the quadruple off the axis is isolated
_EIGS_MATRIX_CSV = "re,im,kind\n" + (
    "0,-0.494922615494768,band\n0,-0.494212322817467,band\n0,-0.485049017778211,band\n"
    "0,-0.482966170923392,band\n0,-0.470370738028387,band\n0,-0.466266787059256,band\n"
    "0,-0.451028877700911,band\n0,-0.444294945897543,band\n0,-0.42720303921239,band\n"
    "0,-0.417278234110601,band\n0,-0.399102996278125,band\n0,-0.385478944772002,band\n"
    "0,-0.366955811682867,band\n0,-0.349178721974428,band\n0,-0.330980192440387,band\n"
    "0,-0.308665464649139,band\n0,-0.291326718274067,band\n0,-0.264272636722402,band\n"
    "0,-0.24792931832358,band\n0,-0.216657108831839,band\n0,-0.200280848139836,band\n"
    "-0.124111517219475,-0.175860402479014,isolated\n0.124111517219475,-0.175860402479014,isolated\n"
    "0,-0.16715073751409,band\n0,-0.148215842108524,band\n0,-0.116745681446117,band\n"
    "0,-0.0940041201183969,band\n0,-0.0654646442807617,band\n0,-0.0399818773745216,band\n"
    "0,-0.0132129257119487,band\n0,0.013212925711949,band\n0,0.0399818773745217,band\n"
    "0,0.0654646442807618,band\n0,0.0940041201183968,band\n0,0.116745681446117,band\n"
    "0,0.148215842108524,band\n0,0.16715073751409,band\n"
    "-0.124111517219474,0.175860402479013,isolated\n0.124111517219474,0.175860402479013,isolated\n"
    "0,0.200280848139835,band\n0,0.216657108831839,band\n0,0.24792931832358,band\n"
    "0,0.264272636722402,band\n0,0.291326718274067,band\n0,0.308665464649138,band\n"
    "0,0.330980192440387,band\n0,0.349178721974428,band\n0,0.366955811682868,band\n"
    "0,0.385478944772001,band\n0,0.399102996278124,band\n0,0.417278234110601,band\n"
    "0,0.427203039212387,band\n0,0.444294945897543,band\n0,0.45102887770091,band\n"
    "0,0.466266787059256,band\n0,0.470370738028386,band\n0,0.482966170923391,band\n"
    "0,0.485049017778213,band\n0,0.494212322817466,band\n0,0.494922615494767,band\n"
)
_EIGS_MATRIX_JSON = (
    '{"a":-0.5,"class":{"khat":[1,0],"p":[1,1],"parallel":false},"eigenvalues":['
    + ",".join(
        f'{{"im":{im},"kind":"{kind}","re":{re}}}'
        for re, im, kind in (row.split(",") for row in _EIGS_MATRIX_CSV.splitlines()[1:])
    )
    + '],"method":"matrix-oracle","size":60}\n'
)
# a circle class: its member 2,-1 splits the chain, and side -1 holds one
# real quadruple
_CIRCLE_JSON = (
    '{"a":-2,"band_endpoints":[{"im":-0.8,"re":0},{"im":0.8,"re":0}],"band_width":1.6,'
    '"circle_member":[2,-1],"class":{"khat":[0,-2],"p":[2,1],"parallel":false},"method":"continued-fraction",'
    '"quadruples":[{"im":0,"members":[{"im":0,"re":0.0411649532416021},{"im":0,"re":-0.0411649532416021}],'
    '"re":0.0411649532416021,"residual":0,"side":-1}]}\n'
)
_CIRCLE_CSV = "re,im,residual,side\n0.0411649532416021,0,0,-1\n"
_SIMULATE_JSON = (
    '{"class":{"khat":[1,0],"p":[1,1]},'
    '"summary":{"H_drift":0,"I_drift":2.66453525910038e-15,"enstrophy_ratio":1.10032163718669}}\n'
)
_EULER_SIM_JSON = '{"E_drift":1.98845914858237e-15,"J_drift":1.99341789957634e-15,"K_cutoff":5,"eps":0.05,"p":[1,1]}\n'
_CIRCLE = ("eigs-cf", "--p", "2,1", "--khat", "2,-1", "--box", "0.05,2,0.05,2", "--grid", "3")
_GOLDEN_SECTION = ("eigs-matrix", "--p", "1,1", "--khat", "1,0", "--n-matrix", "60")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_GOLDEN_SECTION, _EIGS_MATRIX_JSON),
        ((*_GOLDEN_SECTION, "--format", "csv"), _EIGS_MATRIX_CSV),
        (_CIRCLE, _CIRCLE_JSON),
        ((*_CIRCLE, "--format", "csv"), _CIRCLE_CSV),
        (("simulate", "--p", "1,1", "--khat", "1,0"), _SIMULATE_JSON),
        (("euler-sim", "--p", "1,1", "--khat", "1,0", "--eps", "0.05"), _EULER_SIM_JSON),
    ],
    ids=["eigs-matrix-json", "eigs-matrix-csv", "circle-json", "circle-csv", "simulate-json", "euler-sim-json"],
)
def test_float_output_bytes(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _same_but_digits(out, expected)


@pytest.mark.parametrize("p", [(1, 1), (2, 1), (3, 1)])
@pytest.mark.parametrize("radius", ["0", "1", "2", "3", "4.5"])
def test_classes_are_the_classes_of_the_scanned_disk(p, radius):
    # brute force from member lists: every lattice point with
    # |k|^2 <= max(|p|^2, floor(r^2)) lies in exactly one listed class, every
    # listed class holds one of them, and a class meets the disk |k| <= |p|
    # iff one of its members khat + n p, |n| <= 20, lies in it
    p1, p2 = p
    pn2 = p1 * p1 + p2 * p2
    radius2 = max(pn2, int(float(radius) ** 2))
    doc = _json_of("classes", f"--p={p1},{p2}", "--scan-radius", radius)
    members = {
        tuple(c["khat"]): {(c["khat"][0] + n * p1, c["khat"][1] + n * p2) for n in range(-20, 21)} - {(0, 0)}
        for c in doc["classes"]
    }
    assert len(members) == len(doc["classes"])
    r = int(radius2**0.5) + 1
    disk = {(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if 0 < a * a + b * b <= radius2}
    for k in disk:
        assert sum(k in group for group in members.values()) == 1, k
    for c in doc["classes"]:
        group = members[tuple(c["khat"])]
        assert group & disk
        assert c["meets_disk"] == any(a * a + b * b <= pn2 for a, b in group)


@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--root-tol", "tolerances.root_tol", "-1"),
        ("--format", "output.format", "xml"),
        ("--n-matrix", "sizes.N_matrix", "9999"),
    ],
)
def test_checked_options_name_their_flag_or_config_line(tmp_path, capsys, flag, key, value):
    argv = ("band", "--p", "1,1", "--khat", "1,0")
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and flag in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# checked option\n{key}={value}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and f"{cfg}:2" in err and key in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("band", "--p", "1,1", "--khat", "1,0", "--box", "1,2,3"), "bad value for --box: expected 're0,re1,im0,im1'"),
        (("band", "--p", "1,1", "--khat", "1,0", "--config", "{dir}/no_equals.cfg"), "no_equals.cfg:2: expected key=value"),
        (("band", "--p", "1,1", "--khat", "1,0", "--config", "{dir}/missing.cfg"), "cannot read config file"),
        (("eigs-cf", "--p", "1,1", "--khat", "0,0"), "khat and p must be nonzero"),
        (("simulate", "--p", "1,1", "--khat", "0,0"), "khat and p must be nonzero"),
        (("classes", "--p", "0,0"), "p must be nonzero"),
        (("simulate", "--p", "1,1", "--khat", "1,0", "--n-window", "-1"), r"window \[1, -1\] must contain 0"),
        (("euler-sim", "--p", "1,1", "--k-cutoff", "0.5"), "cutoff below 1 leaves no modes"),
    ],
)
def test_refused_inputs_exit_1(tmp_path, capsys, argv, message):
    (tmp_path / "no_equals.cfg").write_text("# the second line has no '='\np 1,1\n")
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and re.search(message, err)
