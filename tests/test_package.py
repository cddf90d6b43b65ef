"""The package namespace is the union of its modules' public names."""
from __future__ import annotations

import importlib
import pkgutil

import cqboxes


def test_package_exports_each_module_all():
    """``cqboxes.__all__`` holds each name of every module ``__all__`` once
    (``cli`` declares none), bound to the very object its module binds."""
    declared = []
    for info in pkgutil.iter_modules(cqboxes.__path__):
        module = importlib.import_module(f"cqboxes.{info.name}")
        for attr in getattr(module, "__all__", ()):
            assert getattr(cqboxes, attr) is getattr(module, attr), f"{info.name}.{attr}"
            declared.append(attr)
    assert sorted(cqboxes.__all__) == sorted(declared)
