"""Every exported name exists, and the package re-exports only exported
names, so a deleted name cannot linger in an ``__all__`` or an import.
Importing the package loads nothing from outside the standard library."""

import ast
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stackings

MODULES = sorted(m.name for m in pkgutil.iter_modules(stackings.__path__))


def exported(module) -> set[str]:
    """The module's ``__all__``; its public names if it has none."""
    names = getattr(module, "__all__", None)
    if names is None:
        return {n for n in vars(module) if not n.startswith("_")}
    return set(names)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stackings.{name}")
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(stackings.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"stackings.{node.module}")
        missing = [a.name for a in node.names if a.name not in exported(module)]
        assert missing == [], f"stackings.{node.module}"


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module's import statements bind, except ``__future__``
    features."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # MODULES leaves out ``__init__.py``, whose imports are re-exports
    path = Path(stackings.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # annotations are expressions in the tree, so their names count as used
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported_names(tree) if n not in used] == []


def module_level_names(tree: ast.Module) -> list[str]:
    """The names the statements at a module's top level define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def test_no_unread_private_names():
    # a helper a change leaves behind is read nowhere in the package
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(stackings.__file__).parent.glob("*.py")
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert unread == []


def imports_by_function(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(enclosing function or None, top-level module) of each absolute
    import; relative imports are the package's own."""
    found = []
    todo: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while todo:
        node, fn = todo.pop()
        if isinstance(node, ast.Import):
            found += [(fn, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((fn, node.module.split(".")[0]))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        todo += [(child, fn) for child in ast.iter_child_nodes(node)]
    return found


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_imports_at_load_are_stdlib_or_own(name):
    # the package imports nothing from outside the standard library, at load
    # or inside any function: it has no runtime dependency
    path = Path(stackings.__file__).with_name(f"{name}.py")
    found = imports_by_function(ast.parse(path.read_text(encoding="utf-8")))
    outside = [(fn, m) for fn, m in found if m not in sys.stdlib_module_names and m != "stackings"]
    assert outside == []


# The svg export of the filling of t t a T T A A A A over bs1p:2.
VKD_SVG_SHA256 = "420514bfa1b7a020c7851fca8d8e16d75f64a54012f89f79999134cfc8bbe93e"


def test_svg_export_without_numpy(tmp_path):
    # with numpy unimportable, the CLI still draws an svg, byte for byte
    target = tmp_path / "d.svg"
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from stackings.cli import main\n"
        "sys.exit(main(['vkd', '--structure', 'bs1p:2', '--word', 't t a T T A A A A',"
        f" '--format', 'svg', '--out', {str(target)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stackings.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == VKD_SVG_SHA256


def test_trees_define_move_not_step():
    # ``move`` is a tree's one primitive and ``step`` is derived from it, so
    # no class below ``NormalFormTree``, in any module, defines ``step``
    classes = [
        node
        for path in Path(stackings.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    trees, grown = {"NormalFormTree"}, True
    while grown:
        below = {c.name for c in classes for b in c.bases if getattr(b, "id", None) in trees}
        grown = not below <= trees
        trees |= below
    assert {"FunctionOracle", "IrreducibleTree"} < trees
    defining = [
        c.name
        for c in classes
        if c.name in trees - {"NormalFormTree"}
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "step"
    ]
    assert defining == []


def test_per_element_records_have_no_dict():
    # the records made per element, edge, node or letter are slotted or
    # tuples: one small object each, with no per-instance ``__dict__``
    from stackings import FlowFunction, bs1p_structure, build_ball, crs_structure, z2_system
    from stackings.stacking import _flow_edges

    s = bs1p_structure(2)
    ball = build_ball(s, 2)
    edge = ball.edges[-1]
    records = {
        "Word": edge.source.canonical,
        "GroupElement": edge.source,
        "DirectedEdge": edge,
        "BS1pElement": s.tree.root,
        "_FlowEdge": _flow_edges(FlowFunction(s), ball)(edge),
        "Irreducible": crs_structure(z2_system()).tree.root,
    }
    assert {name: type(r).__name__ for name, r in records.items()} == {n: n for n in records}
    assert [name for name, r in records.items() if hasattr(r, "__dict__")] == []
