"""No dead module-level bindings and no unreached public code in the package.

Every module-level import and every module-level private function of an
`ellgen` module (the package `__init__` aside, since it only re-exports) must
be referenced inside the package: loaded by name in its own module, outside a
function's own body, or reached from another module as `module.name` or
`from .module import name`.

Every public module-level function and public method must be listed in
`ellgen.__all__` or be referenced, outside its own body, somewhere in `src/`,
`scripts/` or `perfbench/`: as a loaded name, an attribute, an import alias, or
a part of a dotted-name string constant (the strings by which perfbench's
tracer names the functions it wraps).

No module-level statement binds a second name to an existing one (`X = Y` or
`X = module.Y`): such a name only relabels.  Type aliases and constants are
built by an expression, not a bare name, and are left alone.  Parsed with
`ast`, nothing is imported.
"""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellgen"
CORPUS = {path: ast.parse(path.read_text(encoding="utf-8"))
          for folder in ("src", "scripts", "perfbench") for path in (ROOT / folder).rglob("*.py")}
TREES = {path.stem: tree for path, tree in CORPUS.items() if path.parent == PACKAGE}
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _references(node) -> Counter:
    """How often node names each identifier: loaded names, attributes, import
    aliases and the parts of dotted-name string constants."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and DOTTED_NAME.fullmatch(n.value):
            refs.update(n.value.split("."))
    return refs


EXPORTED = {name for stmt in TREES["__init__"].body if isinstance(stmt, ast.Assign)
            and [t.id for t in stmt.targets] == ["__all__"] for name in ast.literal_eval(stmt.value)}


def _public_functions(tree):
    """Each public module-level function and each public method of a module-level class."""
    for stmt in tree.body:
        for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node


def unreached_public(trees: dict, refs: Counter) -> list[str]:
    """`module.name` of each public function of trees that refs names only in its own
    body or in the bodies of other unreached functions (repeated until nothing new
    is found, so a helper that only dead code calls is dead too)."""
    nodes = {f"{module}.{node.name}": node for module, tree in trees.items()
             for node in _public_functions(tree) if node.name not in EXPORTED}
    own = {key: _references(node) for key, node in nodes.items()}
    dead = set()
    while True:
        grown = {key for key, node in nodes.items()
                 if not (refs - sum((own[d] for d in dead | {key}), Counter()))[node.name]}
        if grown == dead:
            return sorted(dead)
        dead = grown


CORPUS_REFS = sum(map(_references, CORPUS.values()), Counter())


def test_every_public_function_is_exported_or_referenced():
    modules = {m: tree for m, tree in TREES.items() if m != "__init__"}
    assert modules, "no package modules found"
    assert unreached_public(modules, CORPUS_REFS) == []


def test_the_guard_sees_unreached_public_functions_and_methods():
    source = textwrap.dedent("""
        def probe_alone(n):
            return probe_alone(n - 1) + probe_helper()

        def probe_helper():
            return 1

        def probe_used():
            return 2

        class Probe:
            def probe_method(self):
                return self.probe_method()

            def __len__(self):
                return probe_used()

        def pell():
            return 0
        """)
    tree = ast.parse(source)
    # probe_helper is called only from the dead probe_alone; probe_used from Probe.__len__;
    # pell is in ellgen.__all__
    assert unreached_public({"probe": tree}, _references(tree)) == [
        "probe.probe_alone", "probe.probe_helper", "probe.probe_method"]


def relabels(tree) -> list[str]:
    """`X = Y` of each module-level assignment whose value is a bare name or attribute."""
    return [ast.unparse(stmt) for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(stmt.value, (ast.Name, ast.Attribute))]


def test_no_module_level_name_only_relabels_another():
    assert {m: relabels(tree) for m, tree in TREES.items()} == {m: [] for m in TREES}


def test_the_guard_sees_a_relabel_but_not_a_type_alias_or_constant():
    source = textwrap.dedent("""
        Rational = Fraction
        Root = cmath.exp
        Monomial = tuple[int, ...]
        LIMIT = 6
        _ZERO = Fraction(0)
        """)
    assert relabels(ast.parse(source)) == ["Rational = Fraction", "Root = cmath.exp"]
