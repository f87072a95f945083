"""Every module's __all__ names only what the module defines, importing the
package stays light, and every name the benchmark hooks into exists."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nodalcount
from nodalcount import permgroup

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(nodalcount.__path__)
    if info.name != "__main__"  # the entry script runs the CLI on import
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from nodalcount.{name} import *", {})


def test_import_loads_no_dataclasses_or_inspect():
    # The records are NamedTuples and slotted classes, so a cold CLI start
    # does not pay for dataclasses (which pulls in inspect, ast and dis).
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nodalcount, nodalcount.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_benchmark_hooks_resolve():
    # bench/tracing.py patches these names by attribute, and counts subgroup
    # enumerations through all_subgroups.cache_info; a rename fails here
    # rather than only when the benchmark runs.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, modname, attr, owner in tracing.SPAN_TARGETS:
        module = importlib.import_module(modname)
        if owner is None:
            assert callable(getattr(module, attr)), name
        else:
            assert attr in vars(getattr(module, owner)), name
    assert callable(permgroup.all_subgroups.cache_info)
