"""The package exports load on first use, and each CLI subcommand imports
only the modules it calls."""

import os
import subprocess
import sys

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
])
def test_subcommand_loads_only_its_modules(tmp_path, argv, absent):
    spec = tmp_path / "spec.json"
    spec.write_text('{"matrices": [[[2, 1], [0, 0.5]], [[0.5, 0], [-9, 2]]]}')
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    loaded = loaded_after(f"from hypercone import cli\n"
                          f"assert cli.main({argv!r}) == 0")
    assert "hypercone.cli" in loaded
    assert not loaded & {f"hypercone.{m}" for m in absent}
