import importlib
import pkgutil

import ramsey_lab


def test_every_exported_name_resolves():
    # a name moved between modules must leave no dangling __all__ entry behind
    missing = []
    for info in pkgutil.iter_modules(ramsey_lab.__path__):
        mod = importlib.import_module(f"ramsey_lab.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
