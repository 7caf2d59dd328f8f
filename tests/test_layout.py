"""Module layout of the package, read with the standard ast module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "localfourier"
PACKAGE = "localfourier"


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _package_targets(node):
    """Sibling modules of the package that an import statement reaches."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            base = node.module
        elif node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
            base = node.module.partition(".")[2] or None
        else:
            return []
        if base is not None:
            return [base.split(".")[0]]
        return [alias.name for alias in node.names]  # from . import x
    if isinstance(node, ast.Import):
        return [
            a.name.split(".")[1]
            for a in node.names
            if a.name.startswith(PACKAGE + ".")
        ]
    return []


def _imports_inside_functions(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; newer syntax would
    # break the oldest interpreter it admits
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_module_import_graph_has_no_cycle():
    trees = _trees()
    graph = {
        name: {
            t
            for node in ast.walk(tree)
            for t in _package_targets(node)
            if t in trees and t != name
        }
        for name, tree in trees.items()
        if name != "__init__"
    }
    done, active = set(), []

    def visit(name):
        if name in active:
            cycle = active[active.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph.get(name, ())):
            if dep != "__init__":
                visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_no_package_import_inside_a_function():
    found = [
        f"{module}.{fn}: line {node.lineno}"
        for module, tree in _trees().items()
        for fn, node in _imports_inside_functions(tree)
        if _package_targets(node)
    ]
    assert found == []


def test_every_private_function_is_used():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unused == []


def _is_cached(fn):
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("lru_cache", "cache"):
            return True
    return False


def test_every_cache_is_keyed_by_integers():
    # a cache keyed by values grows with every value a long-lived process sees
    found = [
        f"{module}.{fn.name}({arg.arg})"
        for module, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_cached(fn)
        for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
                    fn.args.vararg, fn.args.kwarg]
        if arg is not None
        and not (isinstance(arg.annotation, ast.Name) and arg.annotation.id == "int")
    ]
    assert found == []



_MUTATORS = {"append", "update", "setdefault", "add", "pop", "clear"}


def _module_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def _written_roots(node):
    """Names whose value the statement or call writes into."""
    if isinstance(node, ast.Global):
        return node.names
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        targets = [node.func.value] if node.func.attr in _MUTATORS else []
    elif isinstance(node, (ast.Assign, ast.Delete)):
        # a bare name target binds a local; only item and attribute stores write
        targets = [t for t in node.targets if isinstance(t, (ast.Subscript, ast.Attribute))]
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target] if isinstance(node.target, (ast.Subscript, ast.Attribute)) else []
    else:
        return []
    roots = []
    for t in targets:
        while isinstance(t, (ast.Subscript, ast.Attribute)):
            t = t.value
        if isinstance(t, ast.Name):
            roots.append(t.id)
    return roots


def test_no_function_mutates_module_state():
    # state held at module level is shared by every caller in the process,
    # so what one computation leaves there changes the next one's answers
    found = [
        f"{module}.{fn.name}: line {node.lineno} ({name})"
        for module, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for name in _written_roots(node)
        if name in _module_names(tree)
    ]
    assert found == []


def test_cyclotomic_coordinates_stay_in_exactfield():
    # other modules read scalars through FieldElement's public views
    found = [
        f"{module}: line {node.lineno}"
        for module, tree in _trees().items()
        if module != "exactfield"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_Cyc")
        or (isinstance(node, ast.alias) and node.name == "_Cyc")
        or (isinstance(node, ast.Attribute) and node.attr in ("_Cyc", "c"))
    ]
    assert found == []


def test_every_traced_function_resolves():
    # the traced benchmark run wraps perfbench/tracing.py's LAYERS by name;
    # a name that no longer resolves makes its install step raise
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [layers] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    missing = []
    for layer, quals in layers.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for qual in quals:
            owner, _, attr = qual.rpartition(".")
            if owner:
                found = attr in getattr(getattr(module, owner, None), "__dict__", {})
            else:
                found = hasattr(module, attr)
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []


def test_import_loads_no_logging():
    # the library reports through return values and exceptions; importing
    # logging would cost every process that loads the package its memory.
    # Likewise dataclasses, which pulls in inspect and ast: the value
    # classes are NamedTuples, so the import footprint stays small
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    heavy = ("logging", "dataclasses", "inspect", "ast")
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, localfourier, localfourier.cli; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout.strip() == "[]"
