import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euler_spectra.cli import main
from euler_spectra.contfrac import CFParams
from euler_spectra.errors import UsageError
from euler_spectra.euler_core import ModeSet
from euler_spectra.lattice import WaveVector
from euler_spectra.matrixop import build
from euler_spectra.reporting import format_float, to_canonical_json, to_csv

V = WaveVector
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_class_report.py"


def csv_lines(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_format_float_fixed_precision():
    assert format_float(0.1) == "0.1"
    assert format_float(1 / 3) == "0.333333333333333"
    assert format_float(-0.0) == "0"
    assert format_float(1.5e-300) == "1.5e-300"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UsageError):
            format_float(bad)


def test_canonical_json_sorted_and_parseable():
    doc = {"b": 2, "a": [1.0, {"z": 1j}], "vec": V(3, -4)}
    text = to_canonical_json(doc)
    assert text == '{"a":[1,{"z":{"im":1,"re":0}}],"b":2,"vec":[3,-4]}\n'
    parsed = json.loads(text)
    assert parsed["vec"] == [3, -4]


def test_csv_cell_rules():
    row = (True, False, None, -0.0, 0.1, 7, np.int64(-3), "band")
    assert to_csv(("a", "b", "c", "d", "e", "f", "g", "h"), [row]) == "a,b,c,d,e,f,g,h\ntrue,false,,0,0.1,7,-3,band\n"
    assert to_csv(("re", "im"), iter([])) == "re,im\n"
    with pytest.raises(UsageError):
        to_csv(("x",), [(float("nan"),)])


def test_canonical_json_deterministic():
    doc = {"x": np.float64(0.123456789012345678), "y": np.arange(3)}
    assert to_canonical_json(doc) == to_canonical_json(doc)


def test_trajectory_exports(capsys):
    # simulate's table: one row per sample time and chain index
    argv = ("simulate", "--p", "1,1", "--khat", "1,0", "--n-window", "3", "--dt", "1e-2", "--steps", "10")
    lines = csv_lines(capsys, *argv, "--format", "csv")
    assert lines[0] == "t,n,re,im"
    assert len(lines) == 1 + 11 * 7
    assert [line.split(",")[:2] for line in lines[1:8]] == [["0", str(n)] for n in range(-3, 4)]
    assert lines[4] == "0,0,1,0"  # the unit initial state at n = 0
    summary = cli_json(capsys, *argv)["summary"]
    assert set(summary) == {"H_drift", "I_drift", "enstrophy_ratio"}


def test_cf_report_contract(capsys):
    doc = cli_json(capsys, "eigs-cf", "--p", "1,1", "--khat", "1,0", "--box", "0.1,0.6,0.1,0.6", "--grid", "5")
    assert doc["method"] == "continued-fraction"
    assert doc["a"] == -0.5
    assert doc["class"]["khat"] == [1, 0]
    assert len(doc["quadruples"]) == 1
    q = doc["quadruples"][0]
    assert {"re", "im", "residual", "members"} <= set(q)


def test_matrix_report_and_csv(capsys):
    argv = ("eigs-matrix", "--p", "1,1", "--khat", "1,0", "--n-matrix", "80")
    doc = cli_json(capsys, *argv)
    assert doc["method"] == "matrix-oracle"
    assert len(doc["eigenvalues"]) == 80
    # eigs-matrix's table: one row per eigenvalue, tagged as in the report
    lines = csv_lines(capsys, *argv, "--format", "csv")
    assert lines[0] == "re,im,kind"
    assert [line.split(",")[2] for line in lines[1:]] == [e["kind"] for e in doc["eigenvalues"]]
    assert {e["kind"] for e in doc["eigenvalues"]} == {"isolated", "band"}


def load_script():
    spec = importlib.util.spec_from_file_location("golden_class_report", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_operator_triplets_roundtrip(tmp_path, capsys):
    # the golden class report writes the nonzeros of the 60 x 60 section of A
    load_script().main(["--n-matrix", "60", "--outdir", str(tmp_path)])
    assert f"wrote {tmp_path}/" in capsys.readouterr().out
    lines = (tmp_path / "operator_A.csv").read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    op = build("A", CFParams.for_class(V(1, 0), V(1, 1), 1.0), 60)
    assert len(lines) - 1 == np.count_nonzero(op.entries)
    rebuilt = np.zeros((60, 60), dtype=complex)
    for line in lines[1:]:
        r, c, re, im = line.split(",")
        rebuilt[int(r) - 1, int(c) - 1] = float(re) + 1j * float(im)
    assert np.allclose(rebuilt, op.entries, atol=1e-15)


def test_report_script_reads_negative_values_as_the_cli_does(tmp_path):
    # '--khat -1,1' is a value, not an option; (-1,1) lies on the circle |k| = |p|
    assert load_script().main(["--khat", "-1,1", "--n-matrix", "60", "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "eigs_cf.json").read_text())["circle_member"] == [-1, 1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kh", "1,0"], "usage error: unknown flag '--kh'"),
        (["--khat"], "usage error: --khat needs a value"),
        (["1,0"], "usage error: unexpected argument '1,0'"),
    ],
)
def test_report_script_refuses_a_malformed_argv(tmp_path, capsys, argv, message):
    assert load_script().main(["--outdir", str(tmp_path / "out"), *argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_report_script_refuses_an_outdir_it_cannot_create(tmp_path, capsys, under):
    # an existing file, and a path under one, are usage errors, not tracebacks
    blocker = tmp_path / "F"
    blocker.write_text("")
    outdir = blocker / under if under else blocker
    assert load_script().main(["--n-matrix", "60", "--outdir", str(outdir)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"usage error: cannot create --outdir {outdir}: ")
    assert blocker.read_text() == ""


def test_report_script_help(capsys):
    assert load_script().main(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in ("--p", "--khat", "--gamma", "--n-matrix", "--outdir"))


def test_field_csv_header(capsys):
    # euler-sim's table: the final amplitude of every mode; the pump fixed
    # point is exactly stationary, so it reads Gamma at +-p and 0 elsewhere
    lines = csv_lines(capsys, "euler-sim", "--p", "1,1", "--k-cutoff", "2", "--steps", "3", "--format", "csv")
    assert lines[0] == "k1,k2,re,im"
    assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == [k.as_tuple() for k in ModeSet.disk(2).modes]
    assert {line for line in lines[1:] if not line.endswith(",0,0")} == {"-1,-1,1,0", "1,1,1,0"}


@pytest.mark.parametrize("obj", [object(), {1, 2}, [1, b"bytes"]])
def test_canonical_json_refuses_an_unknown_type(obj):
    with pytest.raises(UsageError, match="no canonical JSON form"):
        to_canonical_json(obj)


def _oracle_format_float(x: float) -> str:
    if x != x:
        raise UsageError("refusing to serialize NaN")
    if math.isinf(x):
        raise UsageError("refusing to serialize an infinity")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.15g}"


def _oracle_emit(obj) -> str:
    """The canonical JSON writer as it was before the one-pass dispatch:
    a chain of isinstance tests that sorts and escapes every dict key at
    every use.  Its bytes are the reference."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return _oracle_emit({"im": z.imag, "re": z.real})
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, WaveVector):
        return _oracle_emit([obj.k1, obj.k2])
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{_oracle_emit(str(k))}:{_oracle_emit(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_oracle_emit(v) for v in obj) + "]"
    raise UsageError(f"no canonical JSON form for {type(obj)!r}")


# the old writer passed control characters through raw, so the oracle
# compares strings without them; the quote and the backslash come up often
_PLAIN_TEXT = st.text(st.sampled_from('"\\') | st.characters(exclude_characters=[chr(c) for c in range(32)]))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300])
_INTS = st.integers(-(2**70), 2**70)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    _INTS,
    _INTS.filter(lambda n: abs(n) < 2**63).map(np.int64),
    st.booleans(),
    st.none(),
    _COMPLEX,
    _COMPLEX.map(np.complex128),
    _PLAIN_TEXT,
    st.builds(WaveVector, _INTS, _INTS),
    st.lists(_FLOATS, max_size=5).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(_COMPLEX, max_size=5).map(lambda zs: np.array(zs, dtype=complex)),
    st.lists(_FLOATS, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2)),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda docs: st.lists(docs, max_size=4)
    | st.lists(docs, max_size=4).map(tuple)
    | st.dictionaries(_PLAIN_TEXT, docs, max_size=4),
    max_leaves=20,
)
_NON_FINITE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf), complex(0, math.inf)]
    + [complex(math.nan, 1), np.complex128(complex(math.inf, 0)), np.array([1.0, math.nan]), np.array([math.inf])]
)


@settings(max_examples=300)
@given(doc=_DOCS)
@example(doc={'a"b': [-0.0, 5e-324, 1e300, -1e300], "c\\d": {"\\": np.int64(-7), '"': 1j}, "e": WaveVector(3, -4)})
def test_canonical_json_is_byte_equal_to_the_isinstance_chain(doc):
    assert to_canonical_json(doc) == _oracle_emit(doc) + "\n"


@settings(max_examples=100)
@given(doc=_DOCS, bad=_NON_FINITE, path=st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=3))
def test_a_non_finite_value_anywhere_is_refused(doc, bad, path):
    for kind in path:
        bad = [doc, bad] if kind == "list" else (bad, doc) if kind == "tuple" else {"k": bad, "j": doc}
    with pytest.raises(UsageError):
        to_canonical_json(bad)


@settings(max_examples=200)
@given(doc=st.recursive(st.text(), lambda docs: st.lists(docs, max_size=3) | st.dictionaries(st.text(), docs, max_size=3)))
@example(doc={"a\nb": "x\ty"})
@example(doc=["".join(map(chr, range(32))), '"\\', "\x7f\u2028"])
def test_canonical_json_reads_back_every_string(doc):
    assert json.loads(to_canonical_json(doc)) == doc


_CELLS = st.text() | st.none() | _INTS | st.booleans()


def _cell_text(value) -> str:
    return "" if value is None else value if isinstance(value, str) else json.dumps(value)


def test_control_characters_are_escaped_and_separators_quoted():
    assert to_canonical_json({"a\nb": "x\ty"}) == '{"a\\nb":"x\\ty"}\n'
    assert to_csv(("a", "b"), [("x,y", 1.0), ('say "hi"', None)]) == 'a,b\n"x,y",1\n"say ""hi""",\n'


@settings(max_examples=200)
@given(data=st.data(), width=st.integers(1, 4))
def test_csv_reads_back_every_cell_under_its_header(data, width):
    header = tuple(data.draw(st.lists(st.text(), min_size=width, max_size=width)))
    rows = data.draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=4))
    parsed = list(csv.reader(io.StringIO(to_csv(header, rows), newline="")))
    assert parsed == [list(header), *([_cell_text(v) for v in row] for row in rows)]
