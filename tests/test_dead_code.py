"""No dead module-level bindings in the package.

Every module-level import and every module-level private function of an
`ellgen` module (the package `__init__` aside, since it only re-exports) must
be referenced inside the package: loaded by name in its own module, outside a
function's own body, or reached from another module as `module.name` or
`from .module import name`.  Parsed with `ast`, nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellgen"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _loads(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _reached_from_outside(module: str) -> set[str]:
    """Names of `module` that another module reads as module.name or imports by name."""
    names = set()
    for other, tree in TREES.items():
        if other == module:
            continue
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == module):
                names.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == module:
                names.update(alias.asname or alias.name for alias in n.names)
    return names


def _bindings(tree):
    """(name, statement) of each module-level import and private function."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                yield (alias.asname or alias.name).split(".")[0], stmt
        elif isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                and not stmt.name.startswith("__"):
            yield stmt.name, stmt


def dead_bindings(module: str) -> list[str]:
    tree = TREES[module]
    outside = _reached_from_outside(module)
    loads = [(stmt, _loads(stmt)) for stmt in tree.body]
    dead = []
    for name, stmt in _bindings(tree):
        # a function's own body does not keep it alive
        used_here = any(name in names for other, names in loads if other is not stmt)
        if not used_here and name not in outside:
            dead.append(name)
    return dead


def test_every_module_level_import_and_private_function_is_referenced():
    modules = sorted(m for m in TREES if m != "__init__")
    assert modules, "no package modules found"
    assert {m: dead_bindings(m) for m in modules} == {m: [] for m in modules}


def test_the_guard_sees_an_unused_import_and_an_unused_private_function():
    source = "from .qseries import HalfQSeries\n\ndef _alone(n):\n    return _alone(n - 1)\n"
    TREES["_probe"] = ast.parse(source)
    try:
        assert dead_bindings("_probe") == ["HalfQSeries", "_alone"]
    finally:
        del TREES["_probe"]
