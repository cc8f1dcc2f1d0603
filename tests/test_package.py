"""The package exports load on first use, each CLI subcommand imports only
the modules it calls, and every library name has a caller or is exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercone


def loaded_after(code: str) -> set[str]:
    """The hypercone submodules a fresh interpreter holds after `code`."""
    probe = (f"import sys\n{code}\n"
             "print(' '.join(m for m in sys.modules if m.startswith('hypercone.')))")
    src = os.path.dirname(os.path.dirname(hypercone.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), text=True,
                         check=True).stdout
    return set(out.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert loaded_after("import hypercone") == set()


def test_exports_are_the_submodule_attributes():
    for name, module in hypercone._EXPORTS.items():
        value = getattr(hypercone, name)
        assert value is getattr(sys.modules[f"hypercone.{module}"], name), name


def test_dir_lists_every_export():
    assert set(hypercone.__all__) <= set(dir(hypercone))


def test_unknown_name_is_missing():
    with pytest.raises(AttributeError):
        hypercone.nope
    with pytest.raises(ImportError):
        from hypercone import nope  # noqa: F401


@pytest.mark.parametrize("argv, absent", [
    (["farey", "--pq", "2/5"],
     {"corrdyn", "witness", "multicone", "twoshift", "_exact"}),
    (["normalize", "--input", "SPEC", "--bound", "10"],
     {"corrdyn", "witness", "multicone"}),
    (["winding", "--input", "SPEC", "--word", "AB"],
     {"multicone", "fareycomb", "witness", "twoshift", "_exact"}),
    (["classify2", "--input", "SPEC"],
     {"multicone", "corrdyn", "witness", "fareycomb"}),
    (["witness", "--input", "SPEC", "--budget", "4,4,3"],
     {"multicone", "twoshift", "_exact", "fareycomb", "corrdyn"}),
    (["rate", "--input", "SPEC", "--depth", "6"],
     {"multicone", "twoshift", "_exact", "fareycomb", "corrdyn", "witness"}),
])
def test_subcommand_loads_only_its_modules(tmp_path, argv, absent):
    spec = tmp_path / "spec.json"
    spec.write_text('{"matrices": [[[2, 1], [0, 0.5]], [[0.5, 0], [-9, 2]]]}')
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    loaded = loaded_after(f"from hypercone import cli\n"
                          f"assert cli.main({argv!r}) == 0")
    assert "hypercone.cli" in loaded
    assert not loaded & {f"hypercone.{m}" for m in absent}


ROOT = Path(hypercone.__file__).resolve().parents[2]


def importers_of(module: str) -> set[str]:
    """The src/hypercone modules that import module."""
    return {path.stem for path in (ROOT / "src" / "hypercone").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if (isinstance(node, ast.Import)
                and any(a.name == module for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == module)}


def test_no_module_imports_dataclasses():
    # each dataclass compiles its generated methods when its module is
    # imported, a cost every CLI process paid; records derive _record.Record
    importers = importers_of("dataclasses")
    assert not importers, f"dataclasses imported by {sorted(importers)}"


def test_only_parsers_and_rotation_numbers_import_fractions():
    # exact input is read as integer matrices and scales (integer_scaled);
    # Fraction stays where it is the value itself: the entries cli parses
    # and the rotation numbers p/q of fareycomb and corrdyn
    importers = importers_of("fractions")
    assert importers <= {"cli", "fareycomb", "corrdyn"}, sorted(importers)

# names that no library, CLI, script or benchmark code reads, each kept on
# purpose; anything else without a caller is a wrapper only tests use
UNREFERENCED_OK = {
    "all_correspondences": "the paper's enumeration of a rank's correspondences; c09 reads it",
    "nonrealizable_fixture": "the paper's rank-15 morphism no matrix family induces; c09 reads it",
    "identity_corr": "the unit of the correspondence monoid",
    "parse_word": "the inverse of render_word, for words typed by a user",
    "step_select": "one step of the twist test on a pair, public beside classify_pair",
    "orientation_of_free_pair": "the orientation of a free pair, public beside classify_pair",
    "Sft.dual": "the time-reversed shift, the stable half of a subshift",
    "Sft.cyclically_admissible": "the admissibility of a periodic orbit",
    "MonotoneCorr.is_constant": "a correspondence property of the calculus",
    "_Parser.error": "an argparse hook: argparse calls it on a usage error",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """Top-level functions and classes, and their methods, bar the dunders
    (the interpreter calls those)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_library_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    used = set().union(*map(references, trees.values()))
    unused = sorted(qual for path, tree in trees.items()
                    if path.is_relative_to(ROOT / "src" / "hypercone")
                    for qual, name in definitions(tree)
                    if name not in used and name not in hypercone._EXPORTS
                    and qual not in UNREFERENCED_OK)
    assert not unused, f"defined in src/ but read only by tests: {unused}"
    stale = sorted(q for q in UNREFERENCED_OK if q.rsplit(".", 1)[-1] in used)
    assert not stale, f"allowed as unread, but read: {stale}"
