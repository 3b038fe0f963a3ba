"""The package imports, and every module exports only names it defines."""

import importlib
import pkgutil

import flowshape


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(flowshape.__path__):
        module = importlib.import_module(f"flowshape.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
