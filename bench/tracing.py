"""In-memory spans around the public calls of the nodalcount layers.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` replaces each
traced public function, in every ``nodalcount`` module that holds a
reference to it, with a wrapper that records one span per call; since
module globals are looked up at call time, calls between the package's
own functions are traced as well.  ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory until ``per_op`` and ``write`` at the
end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

# (span name, module, attribute, class or None).  A class entry patches a
# method or classmethod on that class; the others patch module functions.
SPAN_TARGETS = (
    ("cli.main", "nodalcount.cli", "main", None),
    ("presets.resolve_group", "nodalcount.presets", "resolve_group", None),
    ("permgroup.all_subgroups", "nodalcount.permgroup", "all_subgroups", None),
    ("permgroup.subgroup_classes", "nodalcount.permgroup", "subgroup_classes", None),
    ("burnside.table_of_marks", "nodalcount.burnside", "table_of_marks", None),
    ("burnside.be_equal", "nodalcount.burnside", "be_equal", None),
    ("nodal.from_action", "nodalcount.nodal", "from_action", "SigmaConfig"),
    ("nodal.enumerate_sigma_configs", "nodalcount.nodal", "enumerate_sigma_configs", None),
    ("nodal.nodal_orbit_reports", "nodalcount.nodal", "nodal_orbit_reports", None),
    ("nodal.verify", "nodalcount.nodal", "verify", None),
    ("nodal.render", "nodalcount.nodal", "render_text", "VerificationReport"),
    ("nodal.render", "nodalcount.nodal", "to_json", "VerificationReport"),
    ("nodal.render", "nodalcount.cli", "_emit", None),
    ("geometry.d8_case_suite", "nodalcount.geometry", "d8_case_suite", None),
    ("geometry.klein_pencil", "nodalcount.geometry", "klein_counterexample", None),
    ("geometry.analyze_pencil", "nodalcount.geometry", "analyze_pencil", None),
    ("geometry.nodal_members", "nodalcount.geometry", "nodal_members", None),
    ("geometry.base_locus", "nodalcount.geometry", "base_locus", None),
    ("geometry.factor_degenerate", "nodalcount.geometry", "factor_degenerate", None),
    ("geometry.induced_sigma", "nodalcount.geometry", "induced_sigma", None),
)

# Spans that have no public function of their own: the benchmark opens
# them around a block of calls (cli.import around the import itself).
EXTRA_SPANS = ("cli.import",)

SPAN_NAMES = tuple(dict.fromkeys(EXTRA_SPANS + tuple(t[0] for t in SPAN_TARGETS)))

COUNTERS = (
    "permgroup.subgroups_enumerated",
    "nodal.configs_verified",
    "nodal.orbits",
    "nodal.witness_rows",
    "geometry.pencils",
    "geometry.general",
)


def lru_cache_functions():
    """Every ``functools.lru_cache`` function defined by the package, by name."""
    found = {}
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith("nodalcount"):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            home = getattr(value, "__module__", "")
            if callable(info) and home == modname:
                found[f"{modname}.{attr}"] = value
    return found


class Tracer:
    """Records spans (op id, name, parent index, start, end) and counters.

    Create it after ``nodalcount`` is imported: it keeps the package's
    lru_cache functions so that ``cache_totals`` still finds them once
    ``install`` has replaced some of them with wrappers.
    """

    def __init__(self) -> None:
        self.spans = []  # [op, name, parent, start, end]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = None
        self.caches = lru_cache_functions()
        self.remote = {}  # op -> span summary sent back by a child process
        self._stack = []
        self._patched = []

    def cache_totals(self) -> tuple:
        """(hits, misses) summed over the package's lru_cache functions."""
        infos = [fn.cache_info() for fn in self.caches.values()]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.leave(index)

    def add_remote(self, report: dict) -> None:
        """Take in the span summary and counters of an op traced in a child."""
        self.remote[self.op] = report
        for key, value in report["counters"].items():
            self.counters[key] += value

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        enumerates = name == "permgroup.all_subgroups"

        @wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses if enumerates else 0
            index = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(index)
                if observe is not None:
                    observe(tracer, None, False)
                raise
            tracer.leave(index)
            if enumerates and fn.cache_info().misses > misses:
                tracer.counters["permgroup.subgroups_enumerated"] += len(result)
            if observe is not None:
                observe(tracer, result, True)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function in every nodalcount module that names it."""
        modules = {n: m for n, m in sys.modules.items() if n.startswith("nodalcount")}
        for name, modname, attr, owner in SPAN_TARGETS:
            module = modules.get(modname)
            if module is None:
                continue
            if owner is not None:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patched.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched = []

    # -- results -------------------------------------------------------------

    def per_op(self) -> dict:
        """op -> (sum of root span durations, {name: [calls, self seconds]})."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (op, name, parent, start, end) in enumerate(self.spans):
            root, table = out.setdefault(op, [0.0, {}])
            if parent is None:
                out[op][0] = root + (end - start)
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """One JSON line per span, [op, name, parent index, start, end], then
        one line per op traced in a child: {"op": i, "report": summary}."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for op, report in sorted(self.remote.items()):
                fh.write(json.dumps({"op": op, "report": report}) + "\n")


def _count_verify(tracer, report, ok):
    if ok:
        tracer.counters["nodal.configs_verified"] += 1
        tracer.counters["nodal.orbits"] += len(report.orbit_reports)
        tracer.counters["nodal.witness_rows"] += len(report.witnesses)


def _count_pencil(tracer, analysis, ok):
    tracer.counters["geometry.pencils"] += 1
    tracer.counters["geometry.general"] += 1 if ok else 0


_OBSERVERS = {
    "nodal.verify": _count_verify,
    "geometry.analyze_pencil": _count_pencil,
}
