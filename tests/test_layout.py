"""Module boundaries, read from the source files with ``ast``."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "drex"


def _imports(path: Path):
    """(module, imported names) per import; a relative module keeps its dots."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), tuple(a.name for a in node.names)


def test_package_imports_no_test_module():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        for module, names in _imports(path):
            parts = set(module.replace(".", " ").split()) | set(names)
            assert not parts & {"oracle", "helpers"}, (path.name, module, names)


def test_oracle_imports_only_tree_definitions():
    # The reference shares no engine code: from drex it reads only the
    # tree and symbol-set definitions, and it imports no test module,
    # since those reach into the engine.
    test_modules = {p.stem for p in TESTS.glob("*.py")}
    used = set()
    for module, names in _imports(TESTS / "oracle.py"):
        top = module.split(".")[0]
        assert top and top not in test_modules, module
        if module == "drex":
            used.update(f"drex.{n}" for n in names)
        elif top == "drex":
            used.add(module)
    assert used == {"drex.charset", "drex.syntax"}


def _benchmark_wrapped_names() -> dict:
    """``perfbench/tracing.py`` ``IMPORTED``: module -> names its tracer replaces."""
    path = TESTS.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["IMPORTED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no IMPORTED")


def test_package_imports_are_used_or_kept_for_the_benchmark():
    # An imported name is either used, or kept only because the benchmark
    # tracer replaces it by name; the "# kept:" mark must say which.
    wrapped = _benchmark_wrapped_names()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        allowed = set(wrapped.get(f"drex.{path.stem}", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# kept:" in lines[alias.lineno - 1]:
                    assert name in allowed, (path.name, name, "kept but not wrapped")
                else:
                    assert name in loaded, (path.name, name, "imported but unused")


def test_one_class_owns_the_run_time_table():
    # ``table`` and ``_fill`` are the run-time dispatch; a second class
    # defining them would be a second run-time beside ``TaggedDfa``.
    owners = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if methods & {"table", "_fill"}:
                    owners.append((path.name, node.name, sorted(methods & {"table", "_fill"})))
    assert owners == [("automaton.py", "TaggedDfa", ["_fill", "table"])]
