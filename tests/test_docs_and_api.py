"""Documentation and public-API hygiene checks."""

import importlib
import inspect
import pkgutil

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_docstring():
    for mod in _walk_modules():
        assert mod.__doc__ and mod.__doc__.strip(), f"{mod.__name__} undocumented"


def test_all_exports_resolve():
    """Every name in a module's __all__ exists and is documented."""
    undocumented = []
    for mod in _walk_modules():
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name, None)
            assert obj is not None, f"{mod.__name__}.{name} missing"
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{mod.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_classes_have_documented_methods():
    """Public methods of the core API classes carry docstrings."""
    from repro.core import MetaPartitioner, PragmaRuntime
    from repro.execsim import ExecutionSimulator
    from repro.partitioners.base import Partition, Partitioner

    for cls in (PragmaRuntime, MetaPartitioner, ExecutionSimulator,
                Partitioner, Partition):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            if getattr(member, "__objclass__", cls) is not cls and not any(
                name in vars(c) for c in cls.__mro__ if c is not object
            ):
                continue
            doc = inspect.getdoc(member)
            assert doc, f"{cls.__name__}.{name} lacks a docstring"


def test_version_exposed():
    assert repro.__version__ == "5.0.0"
