"""Tests for the package's namespace: its public names and private helpers."""

import ast
import importlib
from pathlib import Path

import m0nbar

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_names_resolve_sorted_and_unique():
    names = m0nbar.__all__
    missing = [name for name in names if not hasattr(m0nbar, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_all_names_have_their_own_docstrings():
    # a dataclass without a docstring gets its signature "Name(...)"
    bare = []
    for name in m0nbar.__all__:
        doc = getattr(m0nbar, name).__doc__
        if not doc or doc.startswith(name + "("):
            bare.append(name)
    assert bare == []


def _bound_names(stmt: ast.stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_private_helper_is_used():
    # a module-level _name that src/ mentions nowhere outside its own
    # definition is dead code
    private, used = set(), set()
    for path in sorted(Path(m0nbar.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            bound = _bound_names(stmt)
            private |= {name for name in bound
                        if name.startswith("_") and not name.startswith("__")}
            inner = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    inner.add(node.id)
                elif isinstance(node, ast.Attribute):
                    inner.add(node.attr)
            # a recursive call is not a use
            used |= inner - bound
    assert sorted(private - used) == []


def test_every_module_level_import_is_used():
    # an imported name that its module never loads is a leftover of a
    # change; __init__.py's re-exports are used through __all__, which
    # the tests above check
    unused = []
    for path in sorted(Path(m0nbar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            loaded |= set(m0nbar.__all__)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def _dotted(node: ast.expr) -> list:
    """["a", "b", "c"] for the expression a.b.c, else []."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def test_every_name_the_bench_uses_resolves():
    # bench/tracer.py wraps each (module, "attr" or "Class.method") of its
    # TARGETS and fails with KeyError at install if one is gone;
    # bench/workloads.py calls m0nbar.<module>.<attr>, also through local
    # aliases such as ideal = m0nbar.ideal.  Renaming or moving any of
    # these breaks the benchmark
    tracer = ast.parse((BENCH / "tracer.py").read_text())
    targets, = [ast.literal_eval(stmt.value) for stmt in tracer.body
                if isinstance(stmt, ast.Assign)
                and _dotted(stmt.targets[0]) == ["TARGETS"]]
    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = {stmt.targets[0].id: _dotted(stmt.value)
               for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
               and isinstance(stmt.targets[0], ast.Name)
               and _dotted(stmt.value)[:1] == ["m0nbar"]}
    calls = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else []
        if name:
            name = aliases.get(name[0], name[:1]) + name[1:]
        if len(name) == 3 and name[0] == "m0nbar":
            calls.add((f"m0nbar.{name[1]}", name[2]))
    assert {("m0nbar.ideal", "spolynomial"),
            ("m0nbar.ideal", "normal_form")} <= calls
    missing = []
    for module, attr in [*targets, *sorted(calls)]:
        try:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = vars(owner)[part]
        except (ImportError, KeyError):
            missing.append(f"{module}.{attr}")
    assert missing == []
