import importlib

import cmalab


def test_every_all_name_resolves():
    # `from cmalab.X import *` fails on a name in X.__all__ that X lacks
    modules = [cmalab] + [importlib.import_module(f"cmalab.{name}")
                          for name in cmalab.__all__ if name != "__version__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
