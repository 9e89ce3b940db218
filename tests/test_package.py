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



def _unbounded_caches(tree):
    """Line numbers of the uses of functools.lru_cache without an integer
    maxsize, and of functools.cache, in tree."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = imported.get(node.id)
        else:
            continue
        if name not in ("lru_cache", "cache"):
            continue
        call = calls.get(id(node))
        maxsize = [] if call is None else \
            [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
        if name == "cache" or not (maxsize and isinstance(maxsize[0], ast.Constant)
                                   and type(maxsize[0].value) is int):
            found.append(node.lineno)
    return found


def test_every_cache_is_bounded():
    # a cache without an integer maxsize grows with every distinct key, so
    # a long run could hold memory the library never gives back
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src/cmalab").rglob("*.py"))
             for line in _unbounded_caches(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_cache_check_flags_unbounded_caches():
    source = ("import functools\nfrom functools import lru_cache, cache as memo\n"
              "@functools.lru_cache(maxsize=4)\ndef a(): pass\n"
              "@lru_cache(8)\ndef b(): pass\n"
              "@functools.lru_cache\ndef c(): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef d(): pass\n"
              "@memo\ndef e(): pass\n"
              "@functools.cache\ndef f(): pass\n"
              "g = lru_cache(maxsize=True)(len)\n")
    assert sorted(_unbounded_caches(ast.parse(source))) == [7, 9, 11, 13, 15]
