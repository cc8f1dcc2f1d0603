"""The package exports load on first use, each CLI subcommand imports only
the modules it calls, and every library name and export has a reader
outside the tests."""

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
# purpose; anything else without a reader is an API only tests use
UNREFERENCED_OK = {
    "_Parser.error": "an argparse hook: argparse calls it on a usage error",
}

# A reader is code in src/, scripts/ or perfbench/; tests read nothing here.
# The walk resolves each name read to the definition it names.  A bare name
# is a local of its function, or else its file's module-level binding: a
# definition of that module, or what an import bound.  An attribute is read
# off a module, a class or an instance; receivers are typed from self,
# parameter annotations in src/, single assignments, calls of classes and the
# return annotations of functions and methods.  A method read off a receiver of
# unknown type counts only when no other class defines one of that name, and
# an export read off one counts as read off the package, which perfbench
# passes around as a value.
LIB = ROOT / "src" / "hypercone"
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(LIB.glob("*.py"))}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """Top-level functions and classes, and their methods, bar the dunders
    (the interpreter calls those)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}"


def top_level(tree: ast.Module) -> dict:
    """name -> the node that binds it at module level: def, class, assignment
    or import."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                out.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name.split(".")[0], node) for a in node.names)
    return out


TOP = {m: top_level(tree) for m, tree in MODULES.items()}
# method name -> the classes that define it
METHODS: dict[str, list] = {}
for _m, _tree in MODULES.items():
    for _q in definitions(_tree):
        if "." in _q:
            _cls, _meth = _q.split(".")
            METHODS.setdefault(_meth, []).append((_m, _cls))


def source_module(node: ast.ImportFrom) -> str | None:
    """The src/hypercone module an import reads from ("__init__" for the
    package), None for any other."""
    if node.level:
        return node.module or "__init__"
    if node.module == "hypercone":
        return "__init__"
    if node.module and node.module.startswith("hypercone."):
        return node.module.split(".")[1]
    return None


def import_binding(node, alias):
    """What an import binds alias's name to: ("module", m), or a library
    binding ("def", m, name)."""
    if isinstance(node, ast.Import):
        if alias.name.split(".")[0] != "hypercone":
            return None
        if alias.asname and "." in alias.name:
            return ("module", alias.name.split(".")[1])
        return ("module", "__init__")
    m = source_module(node)
    if m is None:
        return None
    if m == "__init__" and alias.name in MODULES:
        return ("module", alias.name)
    return lib_binding(m, alias.name)


def lib_binding(m: str, name: str):
    """("def", module, name) of the definition that module m's name binds,
    following imports and the package's exports; None if there is none."""
    if m == "__init__" and name in hypercone._EXPORTS:
        return lib_binding(hypercone._EXPORTS[name], name)
    node = TOP[m].get(name)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        alias = next(a for a in node.names if (a.asname or a.name.split(".")[0]) == name)
        return import_binding(node, alias)
    return None if node is None else ("def", m, name)


def find_method(m: str, cls: str, name: str):
    """("method", module, class, name) of the class in cls's bases that
    defines the method name, nearest first."""
    node = TOP[m][cls]
    if any(isinstance(i, ast.FunctionDef) and i.name == name for i in node.body):
        return ("method", m, cls, name)
    for base in node.bases:
        b = lib_binding(m, base.id) if isinstance(base, ast.Name) else None
        if b and isinstance(TOP[b[1]][b[2]], ast.ClassDef):
            found = find_method(b[1], b[2], name)
            if found:
                return found
    return None


def node_of(value):
    """The def, class or assignment node of a library binding."""
    return TOP[value[1]][value[2]] if value and value[0] == "def" else None


def annotated(m: str, ann):
    """("inst", module, class) of an annotation naming one library class in
    module m's namespace (a string, or a union with None), else None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        found = [v for v in (annotated(m, ann.left), annotated(m, ann.right)) if v]
        return found[0] if len(found) == 1 else None
    b = lib_binding(m, ann.id) if isinstance(ann, ast.Name) else None
    return ("inst", b[1], b[2]) if isinstance(node_of(b), ast.ClassDef) else None


class Reads(ast.NodeVisitor):
    """The library definitions one file reads, as "module.name" and
    "module.Class.method" (refs)."""

    def __init__(self, path: Path):
        self.module = path.stem if path.parent == LIB else None
        tree = ast.parse(path.read_text(), str(path))
        self.file = {}
        if self.module is None:
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    self.file.update((a.asname or a.name.split(".")[0], import_binding(node, a))
                                     for a in node.names)
        self.scopes = []
        self.refs = set()
        self.visit(tree)

    # -- bindings and types

    def lookup(self, name: str, depth: int | None = None):
        """The binding of name seen from the innermost scopes[:depth]."""
        scopes = self.scopes[:depth] if depth is not None else self.scopes
        for i in range(len(scopes) - 1, -1, -1):
            if name in scopes[i]:
                kind, node = scopes[i][name]
                if kind == "ann":
                    return annotated(self.module, node) if self.module else None
                if kind == "value":
                    return self.type_of(node, i + 1)
                return node
        if self.module is not None:
            return lib_binding(self.module, name)
        return self.file.get(name)

    def type_of(self, node, depth: int | None = None):
        """("module", m), ("def", m, name), ("inst", m, cls) or ("method", m,
        cls, name) of an expression, None where the walk cannot tell."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id, depth)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.type_of(node.value, depth), node.attr)
        if isinstance(node, ast.Call):
            return self.returned(self.type_of(node.func, depth))
        return None

    @staticmethod
    def attribute(recv, attr: str):
        if recv is None:
            return None
        if recv[0] == "module":
            if recv[1] == "__init__" and attr in MODULES:
                return ("module", attr)
            return lib_binding(recv[1], attr)
        if recv[0] == "inst" or isinstance(node_of(recv), ast.ClassDef):
            return find_method(recv[1], recv[2], attr)
        return None

    @staticmethod
    def returned(func):
        """The type of a call of func: an instance of a class called, or of
        the class a function, method or property is annotated to return."""
        if func is None or func[0] not in ("def", "method"):
            return None
        node = TOP[func[1]][func[2]]
        if isinstance(node, ast.ClassDef) and func[0] == "def":
            return ("inst", func[1], func[2])
        if func[0] == "method":
            node = next(i for i in node.body
                        if isinstance(i, ast.FunctionDef) and i.name == func[3])
        if isinstance(node, ast.FunctionDef) and node.returns is not None:
            return annotated(func[1], node.returns)
        return None

    # -- the walk

    def ref(self, value):
        if value and value[0] in ("def", "method"):
            self.refs.add(".".join(value[1:]))

    def visit_Import(self, node):
        for a in node.names:
            self.ref(import_binding(node, a))

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.ref(self.lookup(node.id))

    def visit_Attribute(self, node):
        self.generic_visit(node)
        recv = self.type_of(node.value)
        value = self.attribute(recv, node.attr)
        if value is None and (recv is None or recv[0] != "module"):
            owners = METHODS.get(node.attr, [])
            if len(owners) == 1:
                value = ("method", *owners[0], node.attr)
            elif node.attr in hypercone._EXPORTS:
                value = lib_binding("__init__", node.attr)
        if isinstance(node.ctx, ast.Load):
            self.ref(value)

    def visit_FunctionDef(self, node, cls=None):
        for d in getattr(node, "decorator_list", ()):
            self.visit(d)
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
            if a is not None and a.annotation is not None:
                self.visit(a.annotation)
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.visit(default)
        if getattr(node, "returns", None) is not None:
            self.visit(node.returns)
        scope = {}
        for i, a in enumerate((*args.posonlyargs, *args.args, *args.kwonlyargs,
                               args.vararg, args.kwarg)):
            if a is None:
                continue
            if i == 0 and cls and a.arg in ("self", "cls"):
                scope[a.arg] = ("bound", ("inst" if a.arg == "self" else "def",
                                          self.module, cls))
            elif a.annotation is not None:
                scope[a.arg] = ("ann", a.annotation)
            else:
                scope[a.arg] = ("bound", None)
        body = node.body if isinstance(node.body, list) else [node.body]
        # name -> the value of each plain assignment to it, None for any
        # other store; a local assigned once and stored nowhere else has the
        # type of that value
        stores: dict[str, list] = {}
        plain = set()
        for stmt in body:
            for n in own_nodes(stmt):
                if isinstance(n, ast.Assign) and len(n.targets) == 1 \
                        and isinstance(n.targets[0], ast.Name):
                    plain.add(n.targets[0])
                    stores.setdefault(n.targets[0].id, []).append(n.value)
                elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load) \
                        and n not in plain:
                    stores.setdefault(n.id, []).append(None)
                elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                    stores.setdefault(n.name, []).append(None)
                elif isinstance(n, (ast.Import, ast.ImportFrom)):
                    for a in n.names:
                        scope[a.asname or a.name.split(".")[0]] = ("bound", import_binding(n, a))
        for name, values in stores.items():
            if name in scope:  # a parameter or an import stored to again
                if scope[name][0] != "ann":
                    scope[name] = ("bound", None)
            elif len(values) == 1 and values[0] is not None:
                scope[name] = ("value", values[0])
            else:
                scope[name] = ("bound", None)
        self.scopes.append(scope)
        for stmt in body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node):
        for expr in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(expr)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and self.module is not None:
                self.visit_FunctionDef(stmt, cls=node.name)
            else:
                self.visit(stmt)

    def visit_comprehension_scope(self, node):
        self.scopes.append({n.id: ("bound", None) for g in node.generators
                            for n in ast.walk(g.target) if isinstance(n, ast.Name)})
        self.generic_visit(node)
        self.scopes.pop()

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = \
        visit_comprehension_scope


def own_nodes(node):
    """node and the nodes inside it, bar those of nested functions, classes
    and comprehensions, which bind their names in scopes of their own."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
                         ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return
    for child in ast.iter_child_nodes(node):
        yield from own_nodes(child)


def library_reads(root: Path = ROOT) -> set[str]:
    return set().union(*(Reads(path).refs for folder in ("src", "scripts", "perfbench")
                         for path in sorted((root / folder).rglob("*.py"))))


def test_every_library_name_has_a_caller():
    reads = library_reads()
    unread = sorted(f"{m}.{q}" for m, tree in MODULES.items() for q in definitions(tree)
                    if f"{m}.{q}" not in reads and q not in UNREFERENCED_OK)
    assert not unread, f"defined in src/ but read only by tests: {unread}"
    stale = sorted(q for q in UNREFERENCED_OK
                   if any(r == q or r.endswith(f".{q}") for r in reads))
    assert not stale, f"allowed as unread, but read: {stale}"


def test_every_export_has_a_reader():
    reads = library_reads()
    unread = sorted(n for n, m in hypercone._EXPORTS.items() if f"{m}.{n}" not in reads)
    assert not unread, f"exported, but read only by tests: {unread}"
