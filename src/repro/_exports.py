"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` imports nothing at load; it lists its public
names once, each mapped to the submodule that defines it::

    _EXPORTS = {
        "Sweep": "sweep",
        "ResultStore": "store",
    }
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

The first access to ``repro.core.Sweep`` (attribute, ``from``-import
or star-import) imports ``repro.core.sweep`` and caches the name in the
package, so a process loads only the modules it uses.  A name mapped
to itself is the submodule.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for ``package`` exporting
    every key of ``table`` (name -> submodule of ``package``)."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__, list(table)
