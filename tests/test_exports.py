"""Every name a module exports through __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import limitlearn

MODULES = [
    mod for mod in (importlib.import_module(info.name)
                    for info in pkgutil.iter_modules(limitlearn.__path__, "limitlearn."))
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
