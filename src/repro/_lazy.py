"""PEP 562 lazy package exports.

A package ``__init__`` that re-exports its submodules eagerly makes
every importer pay for every sibling and its dependencies.  With
:func:`attach` an ``__init__`` imports nothing; the first use of a name
imports only the submodule that defines it, so a command loads only
what it runs.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def attach(
    package: str, submodules: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for *package*.

    *submodules* maps each submodule to the names the package exports
    from it.  Every exported name and every listed submodule resolves
    as an attribute of the package; the value is cached in the package
    namespace, so later lookups skip ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    exports = {name: sub for sub, names in submodules.items() for name in names}

    def __getattr__(name: str) -> object:
        if name in exports:
            module = importlib.import_module(f"{package}.{exports[name]}")
            value = getattr(module, name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports) | set(submodules))

    return __getattr__, __dir__
