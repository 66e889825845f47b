"""The package's exported names."""

import importlib
import pkgutil

import pytest

import subdiff
import subdiff.cq
import subdiff.fem

MODULES = [m.name for m in pkgutil.iter_modules(subdiff.__path__)]


@pytest.mark.parametrize("module", ["subdiff"] + [f"subdiff.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"
    exec(f"from {module} import *", {})  # a stale __all__ entry raises here


@pytest.mark.parametrize("module", MODULES)
def test_every_submodule_declares_all(module):
    """A star import binds a module's public names only, not its imports."""
    assert isinstance(getattr(importlib.import_module(f"subdiff.{module}"), "__all__", None), list)


def test_the_root_defines_only_its_submodules():
    """Each public name has one import path, its own module's."""
    assert {name for name in vars(subdiff) if not name.startswith("_")} <= set(MODULES)
    assert not {"__all__", "__version__"} & set(vars(subdiff))


def test_test_oracles_are_not_in_the_package():
    """The reference functions only the tests use live in tests/oracles.py."""
    for name in ("frac_apply", "rl_integral_oracle", "ritz_project",
                 "l2_error_vs_function"):
        for mod in (subdiff, subdiff.cq, subdiff.fem):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
