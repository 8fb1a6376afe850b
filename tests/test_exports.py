"""Every name a module exports through __all__ resolves on that module, and
the package root exports nothing: each name is imported from its module."""

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


def test_package_root_re_exports_nothing():
    """Importing a submodule binds it on the package; nothing else is public."""
    public = [name for name, value in vars(limitlearn).items()
              if not name.startswith("_")
              and getattr(value, "__name__", None) != f"limitlearn.{name}"]
    assert public == [], public
    assert isinstance(limitlearn.__version__, str)
