"""Tests for the package's namespace: its public names and private helpers."""

import ast
import importlib.util
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


def _units(stmt: ast.stmt) -> list:
    """(names bound, nodes that may use names) of stmt; each statement of
    a class body is a unit of its own, so a method that only its own body
    mentions is unused."""
    if not isinstance(stmt, ast.ClassDef):
        return [(_bound_names(stmt), [stmt])]
    header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
    return [({stmt.name}, header), *(u for s in stmt.body for u in _units(s))]


def test_every_private_helper_is_used():
    # a _name bound at module level or in a class body (a method, a
    # property) that src/ mentions nowhere outside its own definition is
    # dead code
    private, used = set(), set()
    for path in sorted(Path(m0nbar.__file__).parent.glob("*.py")):
        units = [u for stmt in ast.parse(path.read_text()).body
                 for u in _units(stmt)]
        for bound, nodes in units:
            private |= {name for name in bound
                        if name.startswith("_") and not name.startswith("__")}
            inner = set()
            for node in (n for top in nodes for n in ast.walk(top)):
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


def test_the_bench_tracer_sees_the_invariants_layers():
    # bench/run.py --trace 1 reports the invariants' layers through the
    # spans of bench/tracer.py, which wraps each traced name wherever
    # m0nbar binds it: a faster path that bypassed buchberger,
    # initial_ideal or matrix_rank would blank its span.  The tracer is
    # loaded from its file and every wrapper is removed afterwards
    import m0nbar.cli  # the tracer wraps cli.main too
    import m0nbar.ideal as ideal
    from test_moduli import cubic_quartic_ideal

    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (ideal.buchberger, ideal.initial_ideal, ideal.matrix_rank,
                 m0nbar.cli.main)
    I = cubic_quartic_ideal(6)
    tracer = module.Tracer()
    tracer.install()
    try:
        ideal.min_gens_by_total_degree(I)
        ideal.graded_piece_dim(I, (1, 1, 2), "rank")
        ideal.graded_piece_dim(I, (1, 1, 2), "standard")
    finally:
        tracer.restore()
    assert (ideal.buchberger, ideal.initial_ideal, ideal.matrix_rank,
            m0nbar.cli.main) == originals
    calls = {name: stat[0] for name, stat in tracer.spans.items()}
    for name in ("ideal.buchberger", "ideal.initial_ideal",
                 "arith.matrix_rank"):
        assert calls[name] > 0, name
    assert tracer.counters["arith.matrix_rank.rows"] > 0
