"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import inspect
import pkgutil

import blockadesim


def submodules():
    return [
        importlib.import_module(f"blockadesim.{info.name}")
        for info in pkgutil.iter_modules(blockadesim.__path__)
    ]


def test_every_name_in_all_resolves():
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_exports_only_declared_names():
    declared = {name for module in submodules() for name in getattr(module, "__all__", ())}
    exported = {
        name
        for name, value in vars(blockadesim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported <= declared, sorted(exported - declared)
