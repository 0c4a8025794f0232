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


def _calls(wanted) -> list:
    """(qualified function, callee) for each call in the package for
    which ``wanted(call, function)`` holds, module by module in source
    order; a call outside every function is in function ``""``."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and wanted(child, where):
                calls.append((where, _callee(child)))
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return calls


def test_one_loop_steps_a_machine_over_input():
    # ``tagged_dfa_match`` is the only loop that steps a machine over
    # input: nothing in the package builds an anchor stream to walk, and
    # the one ``.step`` call is ``Dfa.step`` handing off to its machine.
    # It is also the only code that runs a memory program: construction
    # computes each step's next store directly.
    runners = ("inject_anchors", "apply_program", "_apply_rel_ops")
    calls = _calls(lambda c, _: (_callee(c) in runners
                                 or (_callee(c) == "step" and isinstance(c.func, ast.Attribute))))
    assert calls == [("Dfa.step", "step"), ("tagged_dfa_match", "_apply_rel_ops")]


def test_one_report_of_a_run():
    # ``MatchResult.from_run`` reads a run's spans off its result bank and
    # is the only code that builds a ``MatchResult``.  The loop maps
    # positions through one ``at``, whose ``starts`` is bound by a
    # default, so the loop reads no variable through a closure cell.
    from drex.automaton import tagged_dfa_match

    made = _calls(lambda c, where: (_callee(c) == "MatchResult"
                                    or (_callee(c) == "cls" and where.startswith("MatchResult."))))
    assert made == [("MatchResult.from_run", "cls")] * 2, made
    for path in sorted(PACKAGE.glob("*.py")):
        assert not [n for n in _functions(path) if n.endswith("extract_submatches")], path.name
    assert tagged_dfa_match.__code__.co_cellvars == ()


def _functions(path: Path) -> dict:
    """Qualified name -> node, for every function and method of a module."""
    found = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{where}.{child.name}" if where else child.name
                if isinstance(child, ast.FunctionDef):
                    found[name] = child
                visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return found


def test_one_fill_reports_a_symbol_outside_the_alphabet():
    # A row miss is reported where the row is filled: ``TaggedDfa._fill``
    # raises ``_outside`` itself, so neither ``step`` nor the loop checks
    # for a missing entry.  The only other caller is ``dfa_match``'s check
    # of the code points it is given.
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn in _functions(path).items():
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and _callee(n) == "_outside"]
            callers += [(path.stem, name)] * len(calls)
            if name == "TaggedDfa._fill":
                raised = [n.exc for n in ast.walk(fn) if isinstance(n, ast.Raise)]
                assert [_callee(e) for e in raised] == ["_outside"], raised
    assert callers == [("automaton", "TaggedDfa._fill"), ("automaton", "dfa_match")]


def test_exports_read_edges_through_one_walk():
    # ``_edges`` is the one reading of a complete machine's edges, plain or
    # tagged: the exports and the characteristic-equation solution call it
    # and never read ``.transitions`` themselves.
    functions = _functions(PACKAGE / "automaton.py")
    for name in ("export_dot", "export_json", "dfa_to_regex"):
        nodes = list(ast.walk(functions[name]))
        assert not [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "transitions"]
        assert [_callee(n) for n in nodes if isinstance(n, ast.Call)].count("_edges") == 1, name


_MAPPINGS = {"dict", "defaultdict", "OrderedDict", "Counter",
             "WeakKeyDictionary", "WeakValueDictionary"}


def _callee(node) -> str:
    """The name a call or decorator names, without its module."""
    f = node.func if isinstance(node, ast.Call) else node
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def test_no_cache_outlives_a_machine():
    # The machine memo (``TaggedDfa._memo``) holds derivatives, tag
    # evaluations and class blocks, and is released with the machine's
    # construction tables.  The package keeps its six
    # ``lru_cache``s and the intern table, and no module holds a mapping
    # that starts empty, the shape of a memo that outlives every call.
    cached, empty = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cached += [(path.stem, node.name) for d in node.decorator_list
                           if _callee(d) in ("lru_cache", "cache")]
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if ((isinstance(value, ast.Dict) and not value.keys)
                    or (isinstance(value, ast.Call) and not value.args
                        and _callee(value) in _MAPPINGS)):
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                empty.append((path.stem, ast.unparse(target)))
    assert sorted(cached) == [("semantics", "_dca"), ("syntax", "has_memory"),
                              ("syntax", "is_memory_eps"), ("syntax", "is_nullable"),
                              ("syntax", "max_bank"), ("syntax", "order_key")]
    assert empty == [("syntax", "_INTERNED")], empty


def test_no_tree_node_holds_a_bank():
    # A tagged state is the tuple of its bank bodies, so banks live only
    # in ``engine`` and ``submatch``: no node class of the tree has a
    # ``bank`` field, and the tree and derivative modules never name a
    # ``Bank``.
    from drex import syntax

    nodes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, syntax.Regex)]
    assert len(nodes) > 10
    for c in nodes:
        assert "bank" not in getattr(c, "__dataclass_fields__", {}), c
    for stem in ("syntax", "semantics"):
        path = PACKAGE / f"{stem}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        names |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        assert "Bank" not in names, stem


def test_test_modules_use_every_import():
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    assert name in loaded, (path.name, node.lineno, name)


def test_boundary_rule_reads_no_tree():
    # ``anchors`` tabulates where markers go; it knows symbols, not trees.
    drex_modules = {module for module, _ in _imports(PACKAGE / "anchors.py")
                    if module.startswith(".") or module.split(".")[0] == "drex"}
    assert drex_modules <= {".charset", "drex.charset"}, drex_modules


def test_one_kind_of_class_atom():
    # Every class atom skips the anchors its class does not name; no flag
    # makes a second kind.
    from drex.syntax import Sym

    assert list(Sym.__dataclass_fields__) == ["chars"]


def test_docs_list_the_parser_escapes():
    # The syntax docstring and the README list every escape the parser
    # reads, and only those; the anchor escapes have their own row, which
    # lists each anchor as the printer writes it.
    from drex import syntax
    from drex.charset import ANCHORS

    plain = sorted(e for e, cp in syntax._ESCAPES.items() if cp not in ANCHORS)
    doc_row = next(line for line in syntax.__doc__.splitlines() if line.split()[:1] == ["escapes"])
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    readme_row = next(line for line in readme if line.startswith("| escapes |"))
    for row in (doc_row.split()[1:], readme_row.split("`")[1].split()):
        assert all(t.startswith("\\") for t in row), row
        assert sorted(t[1:] for t in row) == plain, row
    anchor_row = next(line for line in readme if line.startswith("| `\\A "))
    assert anchor_row.split("`")[1].split() == [syntax._show_char(a) for a in ANCHORS.codepoints()]
