"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A submodule is imported the first time one of its exported names is
read, so importing a package no longer imports all of its siblings.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict):
    """Module ``__getattr__`` and ``__dir__`` serving ``package``'s exports.

    ``exports`` maps a relative submodule name to the names it provides.
    A name read once is bound on the package.  A name that is also a
    submodule's name must be bound eagerly instead: importing that
    submodule binds the module object on the package.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
