"""The package's public names, the modules that define them, and their size."""
from __future__ import annotations

import importlib
import pkgutil
import tokenize

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


def _tokens(module) -> int:
    """Tokens the compiler reads from the module's source: every token but
    the non-logical newlines and the comments."""
    with open(module.__file__, encoding="utf-8") as f:
        return sum(1 for t in tokenize.generate_tokens(f.readline)
                   if t.type not in (tokenize.NL, tokenize.COMMENT))


def test_cli_compiles_below_the_parser_step():
    # compiling a module from source took a step up in memory between 4096
    # and 4100 tokens (0.15 MB of peak RSS, likely a parser buffer that
    # doubles), and a fresh interpreter without cached bytecode compiles
    # cli.py on every run
    counts = {m.__name__: _tokens(m) for m in MODULES}
    assert counts["plapvar.cli"] < 4096, f"tokens per module: {counts}"
