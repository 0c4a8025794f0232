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
