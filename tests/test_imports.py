import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quivalg"
WORKLOADS = ROOT / "bench" / "workloads.py"


def unused_imports(tree):
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nb()\n")
    assert unused_imports(tree) == [(1, "os"), (2, "d")]


def unreferenced_defs(trees, public_in=(), callers=()):
    """(module, name) of each module-level ``_``-prefixed function or class
    in ``trees`` (module name -> parsed module), and of each public one in
    the modules listed in ``public_in``, that no code outside its own body
    names: as a name, an attribute or an imported name.  The parsed modules
    in ``callers`` only count as code that names them."""
    refs = {}  # name -> ids of the nodes that name it
    for tree in [*trees.values(), *callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, []).append(id(alias))
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and (node.name.startswith("_") or module in public_in)
                    and not node.name.startswith("__")):
                inside = {id(n) for n in ast.walk(node)}
                if all(ref in inside for ref in refs.get(node.name, [])):
                    found.append((module, node.name))
    return found


def test_every_private_helper_has_a_caller():
    """Every function and class has a caller outside its own body, the
    benchmark's workloads counting as callers.  The public module oracles
    in representations.py are exempt: they wait for an elimination-side
    cross-check to call them."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    public_in = tuple(name for name in trees if name != "representations.py")
    workloads = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    assert unreferenced_defs(trees, public_in, callers=[workloads]) == []


def test_every_quivalg_name_the_benchmark_reads_exists():
    """The names ``bench/workloads.py`` imports from quivalg, and the
    attributes it reads off the quivalg modules it imports, all exist;
    else every benchmark workload fails at import or in its first round."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules, names = {}, []  # local name -> quivalg module; (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quivalg":
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "quivalg":
                    modules[alias.asname or alias.name] = f"quivalg.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    assert {module for module, _ in names} > {"quivalg"}
    for module in modules.values():
        importlib.import_module(module)  # binds the submodule on the package
    missing = [(module, name) for module, name in sorted(set(names))
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_an_unreferenced_private_helper_is_found():
    trees = {
        "a.py": ast.parse("def _used():\n    pass\n\n"
                          "def _orphan():\n    return _orphan()\n\n"
                          "class _Imported:\n    pass\n\n"
                          "def __dunder__():\n    pass\n\n"
                          "def public():\n    pass\n"),
        "b.py": ast.parse("from a import _Imported\nimport a\n\nx = a._used()\n"
                          "\ndef called():\n    pass\n\ndef orphan():\n    pass\n"),
        "c.py": ast.parse("import b\n\nb.called()\n"),
    }
    assert unreferenced_defs(trees) == [("a.py", "_orphan")]
    assert unreferenced_defs(trees, public_in=("b.py",)) == [("a.py", "_orphan"), ("b.py", "orphan")]
    caller = trees.pop("c.py")
    assert ("b.py", "called") in unreferenced_defs(trees, public_in=("b.py",))
    assert unreferenced_defs(trees, public_in=("b.py",), callers=[caller]) == [
        ("a.py", "_orphan"), ("b.py", "orphan")]


def test_the_version_has_one_record():
    """pyproject.toml reads the version off ``quivalg.__version__``, and the
    package module binds that name only: quivalg is imported by submodule."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "quivalg.__version__"}
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    assert bound == {"__version__"}
