import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import euler_spectra.cli as cli
from euler_spectra.cli import main
from euler_spectra.lattice import WaveVector, canonical_label, det
from euler_spectra.reporting import verdict_dict
from euler_spectra.subsystem import classify_stability
from euler_spectra.verification import CheckResult


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


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "1,1", "--khat", "3,0",
        "--n-window", "5", "--dt", "0.01", "--steps", "10", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "t,n,re,im"


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


def test_grid_below_one_is_a_usage_error(capsys):
    for grid in ("0", "-3"):
        code, out, err = run_cli(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--grid", grid)
        assert code == 1 and out == ""
        assert "grid" in err


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



def test_blowups_exit_2(capsys):
    # finite state, overflowing invariant series
    code, out, err = run_cli(capsys, "simulate", "--p", "1,1", "--khat", "1,0", "--dt", "100", "--steps", "30")
    assert code == 2 and out == "" and "drift is not finite" in err
    # non-finite state
    code, out, err = run_cli(capsys, "simulate", "--p", "1,1", "--khat", "1,0", "--dt", "100", "--steps", "1000")
    assert code == 2 and out == "" and "non-finite state" in err
    code, out, err = run_cli(capsys, "euler-sim", "--p", "1,1", "--gamma", "1e160", "--k-cutoff", "4", "--steps", "5")
    assert code == 2 and out == "" and "E drift is not finite" in err


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
    verdicts = [verdict_dict(classify_stability(canonical_label(k, p))) for k in (khat, shifted)]
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
