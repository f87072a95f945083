"""Every module's __all__ names only what the module defines."""

import pkgutil

import pytest

import nodalcount

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(nodalcount.__path__)
    if info.name != "__main__"  # the entry script runs the CLI on import
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from nodalcount.{name} import *", {})
