"""Every module's __all__ names only what the module defines, importing the
package stays light, and every name the benchmark hooks into or imports exists."""

import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nodalcount
from nodalcount import cli, nodal, permgroup

ROOT = Path(__file__).resolve().parent.parent
# __main__ runs the CLI only as a script: the installed script imports it.
MODULES = sorted(info.name for info in pkgutil.iter_modules(nodalcount.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from nodalcount.{name} import *", {})


def test_import_loads_no_dataclasses_or_inspect():
    # The records are NamedTuples and slotted classes, so a cold CLI start
    # does not pay for dataclasses (which pulls in inspect, ast and dis).
    # The CLI imports json and importlib.resources only where it writes or
    # reads JSON.  Under -S no site hook has loaded any of them first.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nodalcount, nodalcount.cli\n"
        "heavy = {'dataclasses', 'inspect', 'json', 'importlib.resources'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-S"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "[]", flags


def load_tracing():
    """bench/tracing.py as a module, read from the benchmark, not copied."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_hooks_resolve():
    # bench/tracing.py patches these names by attribute, and counts subgroup
    # enumerations through all_subgroups.cache_info; a rename fails here
    # rather than only when the benchmark runs.
    tracing = load_tracing()
    for name, modname, attr, owner in tracing.SPAN_TARGETS:
        module = importlib.import_module(modname)
        if owner is None:
            assert callable(getattr(module, attr)), name
        else:
            assert attr in vars(getattr(module, owner)), name
    assert callable(permgroup.all_subgroups.cache_info)


def test_every_benchmark_span_is_reached(capsys):
    # A span that no command reaches reads 0 in every benchmark run and
    # shows nothing; the package's caches start cold, as in a fresh process.
    tracing = load_tracing()
    for fn in tracing.lru_cache_functions().values():
        fn.cache_clear()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        for argv in (
            ["marks", "--group", "S4"],
            ["verify", "--group", "D8", "--sigma", "[G/(14)(23)]"],
            ["verify-all", "--group", "V"],
            ["counterexample", "klein"],
            ["counterexample", "d8", "--case", "8"],
            ["theorem-sweep"],
        ):
            cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    reached = {span[1] for span in tracer.spans}
    assert set(tracing.SPAN_NAMES) - {"cli.import"} - reached == set()


def test_theorem_sweep_reaches_the_orbit_path_once_per_process(capsys, monkeypatch):
    # theorem-sweep reads its verdicts off S4's natural table, which one
    # verify builds: the first sweep after cold caches runs the orbit path
    # once, and a second sweep in the same process not at all.
    for fn in load_tracing().lru_cache_functions().values():
        fn.cache_clear()
    calls = []
    original = nodal.nodal_orbit_reports

    def counted(sigma):
        calls.append(sigma.ambient.order)
        return original(sigma)

    monkeypatch.setattr(nodal, "nodal_orbit_reports", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert cli.main(["theorem-sweep"]) == 0
        counts.append(list(calls))
    capsys.readouterr()
    assert counts == [[24], []]


@pytest.mark.parametrize(
    "argv, expected",
    [(["theorem-sweep"], []), (["verify", "--group", "D8", "--sigma", "[G/(24)]"], [])],
    ids=["theorem-sweep", "verify"],
)
def test_from_action_proves_only_actions_built_elsewhere(capsys, monkeypatch, argv, expected):
    # sigma_from_classes builds its coset actions without from_action's
    # proof, S4's natural configuration among them, so neither a sweep nor
    # a verify of a spec proves any action.
    for fn in load_tracing().lru_cache_functions().values():
        fn.cache_clear()
    calls = []
    original = nodal.SigmaConfig.from_action

    def counted(cls, G, point_action):
        calls.append(G.order)
        return original(G, point_action)

    monkeypatch.setattr(nodal.SigmaConfig, "from_action", classmethod(counted))
    cli.main(argv)
    capsys.readouterr()
    assert calls == expected  # the orders of the groups proved


def test_geometry_spans_are_reached_in_a_fresh_interpreter():
    # bench/cli_driver.py patches only the modules loaded when its tracer is
    # installed, right after `import nodalcount.cli`.  In this process other
    # tests may have imported geometry already, so run the driver cold.
    geometry_spans = {n for n in load_tracing().SPAN_NAMES if n.startswith("geometry.")}
    reached = set()
    for argv in (["counterexample", "klein"], ["counterexample", "d8", "--case", "8"]):
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "cli_driver.py"), *argv],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            timeout=60,
            check=True,
        ).stdout
        run = json.loads(out)
        assert run["exit"] == 0, argv
        assert run["counters"]["geometry.pencils"] == 1, argv
        reached |= set(run["spans"])
    assert geometry_spans - reached == set()


def assigned(tree):
    """(target, value) source texts of every assignment in tree, tuples unpacked."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                for t, v in zip(target.elts, node.value.elts):
                    yield ast.unparse(t), ast.unparse(v)
            else:
                yield ast.unparse(target), ast.unparse(node.value)


def bench_reads():
    """(file:line, module, name) for each name bench/*.py imports from
    nodalcount and each attribute it reads off a nodalcount module handle.

    A handle is a module bound by an import, or a name or ``self.x``
    assigned from a handle, such as ``geo = self.geo``.  Inside a function
    that assigns a name anything else, such as a local ``presets`` deck,
    that name is no handle."""
    reads = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        handles = {}
        for node in ast.walk(tree):
            package = (getattr(node, "module", None) or "").split(".")[0]
            if isinstance(node, ast.ImportFrom) and package == "nodalcount":
                for alias in node.names:
                    reads.add((f"{path.name}:{node.lineno}", node.module, alias.name))
                    if node.module == "nodalcount" and alias.name in MODULES:
                        handles[alias.asname or alias.name] = f"nodalcount.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "nodalcount":
                        handles[alias.asname or alias.name] = alias.name
        pairs = list(assigned(tree))
        while any(v in handles and t not in handles for t, v in pairs):
            handles.update({t: handles[v] for t, v in pairs if v in handles})

        def visit(node, shadowed):
            if isinstance(node, ast.FunctionDef):
                shadowed = {t for t, v in assigned(node) if v not in handles}
            if isinstance(node, ast.Attribute):
                owner = ast.unparse(node.value)
                if owner in handles and owner not in shadowed:
                    reads.add((f"{path.name}:{node.lineno}", handles[owner], node.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, shadowed)

        visit(tree, set())
    return sorted(reads)


def test_bench_library_surface_resolves():
    # The benchmark imports these names and reads these attributes; one that
    # the package drops or renames fails here rather than in a bench run.
    reads = bench_reads()
    names = {(modname, name) for _, modname, name in reads}
    assert ("nodalcount", "enumerate_sigma_configs") in names
    assert ("nodalcount.geometry", "pencil_invariant") in names
    assert ("nodalcount.nodal", "SigmaConfig") in names
    for where, modname, name in reads:
        module = importlib.import_module(modname)
        found = hasattr(module, name) or (modname == "nodalcount" and name in MODULES)
        assert found, f"{where}: {modname}.{name} does not resolve"
