"""Every exported name resolves, so a deletion cannot leave a stale export,
and so does every name the benchmark's trace wraps; every error class is
raised somewhere."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import blockadesim

from conftest import package_errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    # a layer counts as present if any one of its names exists, so a single
    # renamed writer would silently move its time into the trace gap
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{layer}: {module}.{attr}"
        for layer, targets in tracing.LAYERS.items()
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_package_error_is_raised_by_name():
    source = "".join(path.read_text() for path in Path(blockadesim.__file__).parent.glob("*.py"))
    unraised = [e.__name__ for e in package_errors() if f"raise {e.__name__}(" not in source]
    assert unraised == []
