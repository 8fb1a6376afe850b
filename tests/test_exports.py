"""Every name a module exports through __all__ resolves on that module, every
name a module imports from a sibling is exported there, and the package root
exports nothing: each name is imported from its module."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_sibling_imports_are_exported():
    """A name one limitlearn module imports from a sibling that declares
    __all__ is listed in that __all__."""
    exported = {mod.__name__.rsplit(".", 1)[1]: set(mod.__all__) for mod in MODULES}
    missing = []
    for path in sorted(Path(limitlearn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in exported:
                missing += [f"{path.stem} imports {alias.name} from {node.module}"
                            for alias in node.names if alias.name not in exported[node.module]]
    assert not missing, missing


def test_package_root_re_exports_nothing():
    """Importing a submodule binds it on the package; nothing else is public."""
    public = [name for name, value in vars(limitlearn).items()
              if not name.startswith("_")
              and getattr(value, "__name__", None) != f"limitlearn.{name}"]
    assert public == [], public
    assert isinstance(limitlearn.__version__, str)
