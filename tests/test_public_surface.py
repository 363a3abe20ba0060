"""Every public name of the package has a caller or a stated reason to stay.

A name in a module's ``__all__`` counts as used when another package module
(not ``__init__``, which only re-exports), a script or a perfbench file
refers to it: as a name, an attribute, an import, or a string that is
exactly the name (perfbench looks layers up by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "euler_spectra"

# public names with no such user, and why each stays
KEEP = {
    "contfrac.a_n": "test oracle: the recurrence reconstructed eigenvectors must solve",
    "contfrac.f_eigen": "test oracle: the matching function settled at one point",
    "contfrac.eigenvector_window": "test oracle: z checked against the recurrence before rescaling",
    "matrixop.char_roots": "test oracle: the roots the resolvent and the det-M test build on",
    "matrixop.relabel": "README module map: the relabel map of the sections",
    "matrixop.unrelabel": "README module map: the inverse of the relabel map",
    "subsystem.cle_rhs": "test oracle: the chain right-hand side on a ComplexSeq",
    "subsystem.half_invariants": "test oracle: the split of I on circle classes",
    "verification.REFERENCE_ROOT": "README: the published constant check 1 reports against",
    "verification.GOLDEN_ROOT_DIGITS": "test oracle: tests/test_golden_root.py recomputes these digits",
}


def _public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
            if "__all__" in targets:
                yield from (f"{path.stem}.{elt.value}" for elt in node.value.elts)


def _references(path: Path) -> set[str]:
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _user_files():
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        files += (ROOT / folder).rglob("*.py")
    return files


def test_every_public_name_has_a_caller_or_a_reason():
    refs = {path: _references(path) for path in _user_files()}
    unused = []
    for name in _public_names():
        module, short = name.split(".")
        others = (found for path, found in refs.items() if path != PACKAGE / f"{module}.py")
        if not any(short in found for found in others):
            unused.append(name)
    assert sorted(set(unused) - set(KEEP)) == []
    # an entry whose name gained a caller, or left __all__, is stale
    assert sorted(set(KEEP) - set(unused)) == []


def test_readme_documents_the_names_kept_for_it():
    readme = (ROOT / "README.md").read_text()
    for name, reason in KEEP.items():
        if reason.startswith("README"):
            short = name.split(".")[1]
            assert f"`{short}`" in readme or f"`{name}`" in readme, name
