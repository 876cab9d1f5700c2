"""Lazy package exports (PEP 562).

A package ``__init__`` lists where each public name lives in a literal
``_EXPORTS`` table (``{name: ".submodule"}``) and ends with::

    __getattr__ = lazy_exports(__name__, _EXPORTS)

Importing the package then imports none of its submodules.  The first
read of a name (``pkg.Name``, ``from pkg import Name``, or ``from pkg
import *`` through ``__all__``) imports its submodule and caches the name
in the package, so every later read is a plain attribute lookup.  A name
that is its own submodule (``"packets": ".packets"``) stands for that
module.  Lint rule ``all-export-sync`` counts the table's keys as the
package's bindings.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package`` for its ``exports`` table."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = import_module(submodule, package)
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
