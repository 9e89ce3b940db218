import ast
import importlib
import pathlib

import cmalab

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_all_name_resolves():
    # `from cmalab.X import *` fails on a name in X.__all__ that X lacks
    modules = [cmalab] + [importlib.import_module(f"cmalab.{name}")
                          for name in cmalab.__all__ if name != "__version__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_no_bare_assert_outside_tests():
    # `python -O` strips assert statements, so a library or benchmark check
    # written as one would silently stop checking
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for top in ("src/cmalab", "benchmarks")
             for path in sorted((ROOT / top).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _module_level(node):
    """The nodes that run when a module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_level(child)


def test_no_module_level_scipy_import():
    # `import cmalab` stays free of scipy: only the Newton solve needs it,
    # and it imports scipy.sparse.linalg inside the functions that use it
    found = []
    for path in sorted((ROOT / "src/cmalab").rglob("*.py")):
        for node in _module_level(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []
