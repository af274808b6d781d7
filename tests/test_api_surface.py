"""The public-surface contract: every module declares ``__all__``, no leaks.

The Session redesign made the package's import surface explicit: each
public module exports exactly the names in its ``__all__``; anything
underscored is internal.  These tests walk the whole package so a module
added without an ``__all__`` — or an ``__all__`` naming a private or
missing attribute — fails tier 1 immediately.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: ``__version__`` is historical public metadata; no other dunder or
#: underscored name may appear in any ``__all__``.
_ALLOWED_DUNDERS = {"__version__"}


def _iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name, importlib.import_module(info.name)


_MODULES = dict(_iter_modules())


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_module_declares_all(name):
    module = _MODULES[name]
    assert getattr(module, "__all__", None) is not None, (
        f"{name} does not declare __all__"
    )
    assert isinstance(module.__all__, (list, tuple))


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_all_names_resolve_and_are_public(name):
    module = _MODULES[name]
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"
        if export in _ALLOWED_DUNDERS:
            continue
        assert not export.startswith("_"), (
            f"{name}.__all__ leaks private name {export!r}"
        )


def test_star_import_leaks_nothing_private():
    namespace: dict = {}
    exec("from repro import *", namespace)  # star-import surface is the point
    leaked = [
        key
        for key in namespace
        if key.startswith("_")
        and key not in _ALLOWED_DUNDERS
        and key != "__builtins__"
    ]
    assert not leaked, f"star import leaked private names: {leaked}"
    # And it really is the declared surface, nothing more.
    assert set(namespace) - {"__builtins__"} == set(repro.__all__)


def test_service_lazy_names_resolve():
    # repro.service loads the socket layer lazily (PEP 562); every name in
    # its __all__ must still resolve exactly as if the import were eager.
    service = importlib.import_module("repro.service")
    for export in service.__all__:
        assert getattr(service, export) is not None
    assert set(service.__all__) <= set(dir(service))
