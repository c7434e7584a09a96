"""The package's public names and the modules that define them."""
from __future__ import annotations

import importlib
import pkgutil

import plapvar as pv

MODULES = [importlib.import_module(f"plapvar.{info.name}")
           for info in pkgutil.iter_modules(pv.__path__) if info.name != "__main__"]


def test_every_export_resolves():
    for module in (pv, *MODULES):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_package_exports_are_module_exports():
    # each name plapvar exports is exported by exactly one submodule, as
    # the same object
    for name in pv.__all__:
        if name == "__version__":
            continue
        homes = [m for m in MODULES if name in m.__all__]
        assert len(homes) == 1, f"{name} is in the __all__ of {homes}"
        assert getattr(homes[0], name) is getattr(pv, name)
