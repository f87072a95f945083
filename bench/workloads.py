"""The three benchmark workloads: input generation, one timed op, its check.

Every workload is a closed loop with one client.  ``ops(seed)`` yields the
op inputs; the same seed yields the same sequence.  ``execute(op, tracer)``
runs one op and returns ``(seconds, outcome)``, timing only the program's
own calls.  ``check(op, outcome)`` decides, outside the timed region,
whether the outcome is correct.  ``describe(op)`` gives the properties the
run records as input provenance.

Mixes are drawn from shuffled decks (each card once before any repeats)
or, for cli_cold, from cost strata, so that runs with different seeds see
nearly the same proportions of cheap and costly ops and differ only in
which concrete inputs they get.
"""

from __future__ import annotations

import bisect
import compileall
import itertools
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "cli_expected.json"
CLI_DRIVER = BENCH_DIR / "cli_driver.py"
SPAWNER = BENCH_DIR / "spawner.py"

# An op that runs longer than this counts as failed, and the run goes on.
OP_TIMEOUT_S = 10.0
# cli_cold draws its commands in blocks of this many cost strata.
COST_STRATA = 12


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an in-process op that overran OP_TIMEOUT_S.

    A BaseException, so that the program's own ``except ValueError`` and
    similar handlers cannot swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


class Deck:
    """Draw cards in a seeded shuffled order, reshuffling when exhausted."""

    def __init__(self, rng: random.Random, cards) -> None:
        self.rng = rng
        self.cards = list(cards)
        self.pending = []

    def draw(self):
        if not self.pending:
            self.pending = self.cards[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class LogUniform:
    """Integers in [1, bound] with roughly uniform logarithm, stratified:
    each draw takes the next of ``strata`` equal slices of log(bound + 1)
    from a deck, so every run sees nearly the same height distribution."""

    def __init__(self, rng: random.Random, bound: int, strata: int = 8) -> None:
        self.rng = rng
        self.bound = bound
        self.strata = strata
        self.deck = Deck(rng, range(strata))

    def draw(self) -> int:
        u = (self.deck.draw() + self.rng.random()) / self.strata
        return min(self.bound, int(math.exp(u * math.log(self.bound + 1))))


class InProcess:
    """Shared timing for the workloads whose ops call the library directly."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def calibrate(self) -> float:
        return calibrate.task()

    def scale(self, op, seconds, before, after) -> float:
        return seconds * 2 * calibrate.REFERENCE_S / (before + after)

    def close(self) -> None:
        pass

    def timed(self, fn, *args):
        """(seconds, result or OpTimeout or the exception raised)."""
        signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            result = fn(*args)
        except OpTimeout as exc:
            result = exc
        except Exception as exc:  # recorded; check() counts it as a failure
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, result

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m nodalcount <argv>` per op
# ---------------------------------------------------------------------------


class CliCold:
    """Fresh interpreter per op: start-up, import and cold caches every time."""

    name = "cli_cold"
    kinds = ("marks", "verify", "verify-all", "klein", "d8", "theorem-sweep")

    def __init__(self, root: Path) -> None:
        self.root = root
        self.max_child_rss_kb = 0
        self.spawner = None

    def setup(self) -> None:
        # Bytecode is compiled once, as an installed package would have it.
        compileall.compile_dir(self.root / "src" / "nodalcount", quiet=1)
        with open(EXPECTED_FILE, encoding="utf-8") as fh:
            self.universe = json.load(fh)["entries"]
        self.expected = {tuple(e["argv"]): e for e in self.universe}
        # The cheapest command is almost all interpreter start and import.
        self.startup_ms = min(e["cost_ms"] for e in self.universe)
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(SPAWNER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=self.root, env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
        )

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=30)
            self.spawner.stdout.close()
            self.spawner = None

    def ops(self, seed: int):
        """Kinds are equally likely, and argv equally likely within a kind.

        The draws are stratified by cost: the universe is laid out on
        [0, 1) in order of the seed-commit cost stored with each argv, each
        argv taking a slice as wide as its probability, and every block of
        COST_STRATA draws takes one point from each 1/COST_STRATA of that
        line, in shuffled order.  So every run, whatever its length, sees
        nearly the same spread of cheap and costly commands.
        """
        rng = random.Random(seed)
        per_kind = {}
        for e in self.universe:
            per_kind[e["kind"]] = per_kind.get(e["kind"], 0) + 1
        line = sorted(self.universe, key=lambda e: (e["cost_ms"], e["argv"]))
        edges = list(itertools.accumulate(
            1 / (len(per_kind) * per_kind[e["kind"]]) for e in line))
        while True:
            block = [(j + rng.random()) / COST_STRATA for j in range(COST_STRATA)]
            rng.shuffle(block)
            for u in block:
                entry = line[min(bisect.bisect_right(edges, u), len(line) - 1)]
                yield {"kind": entry["kind"], "argv": entry["argv"],
                       "preset": entry["preset"], "height_bits": entry["height_bits"]}

    def describe(self, op) -> dict:
        return {"kind": op["kind"], "preset": op["preset"], "height_bits": op["height_bits"]}

    def _spawn(self, argv, capture=False) -> dict:
        """Run argv through the spawner; its reply (see spawner.py)."""
        self.spawner.stdin.write(json.dumps(
            {"argv": argv, "timeout": OP_TIMEOUT_S, "capture": capture}) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def calibrate(self) -> tuple:
        """A spawned sample (start-up) and an in-process one (computation)."""
        spawned = self._spawn([sys.executable, str(calibrate.__file__)])["seconds"]
        return spawned, calibrate.task()

    def scale(self, op, seconds, before, after) -> float:
        """Start-up and computation slow differently when the host slows.

        The start-up share of an op, the cheapest command's cost over this
        command's cost (both stored at the generating commit), is scaled by
        the spawned samples; the rest by the in-process task samples.
        """
        startup = 2 * calibrate.SPAWNED_REFERENCE_S / (before[0] + after[0])
        compute = 2 * calibrate.REFERENCE_S / (before[1] + after[1])
        share = min(1.0, self.startup_ms / self.expected[tuple(op["argv"])]["cost_ms"])
        return seconds * (share * startup + (1 - share) * compute)

    def execute(self, op, tracer=None):
        if tracer is None:
            reply = self._spawn([sys.executable, "-m", "nodalcount", *op["argv"]])
            self.max_child_rss_kb = max(self.max_child_rss_kb, reply["maxrss_kb"])
            return reply["seconds"], reply
        reply = self._spawn([sys.executable, str(CLI_DRIVER), *op["argv"]], capture=True)
        if reply["exit"] != 0:
            return reply["seconds"], {"exit": None, "sha256": None}
        report = json.loads(reply["stdout"])
        tracer.add_remote(report)
        return reply["seconds"], report

    def check(self, op, outcome) -> bool:
        want = self.expected.get(tuple(op["argv"]))
        return (
            want is not None
            and outcome["exit"] == want["exit"]
            and outcome["sha256"] == want["sha256"]
        )

    def peak_rss_kb(self) -> int:
        return self.max_child_rss_kb


# ---------------------------------------------------------------------------
# sweep_warm: relabelled configurations through from_action + verify
# ---------------------------------------------------------------------------


class SweepWarm(InProcess):
    """Warm library use: every op re-verifies a relabelled 4-point G-set."""

    name = "sweep_warm"

    def setup(self) -> None:
        import importlib.resources

        from nodalcount import burnside, nodal, permgroup, presets

        self.nodal, self.presets = nodal, presets
        self.Permutation = permgroup.Permutation
        golden = json.loads(
            importlib.resources.files("nodalcount")
            .joinpath("data/theorem_sweep_golden.json")
            .read_text(encoding="utf-8")
        )
        golden = {g["group"]: g["configs"] for g in golden["groups"]}
        self.canonical = {}
        for name in presets.PRESET_ORDER:
            G = presets.resolve_group(name)
            permgroup.all_subgroups(G)
            permgroup.subgroup_classes(G)
            burnside.table_of_marks(G)
            reports = nodal.verify_all(G)
            observed = [
                {"sigma": r.sigma.sigma_string(),
                 "orbit_classes": list(r.sigma.orbit_classes), "equal": r.equal}
                for r in reports
            ]
            if observed != golden[name]:
                raise RuntimeError(f"canonical verdicts for {name} differ from the golden table")
            self.canonical[name] = [
                (r.sigma.point_action, r.equal, r.table) for r in reports
            ]
        self.relabellings = [self.Permutation(p) for p in _permutations4()]

    def ops(self, seed: int):
        """Presets equally likely, then configurations equally likely within
        the preset, each from its own deck; a random relabelling per op."""
        rng = random.Random(seed)
        presets = Deck(rng, self.canonical)
        configs = {name: Deck(rng, range(len(rows))) for name, rows in self.canonical.items()}
        while True:
            name = presets.draw()
            yield {"preset": name, "config": configs[name].draw(), "relabel": rng.randrange(24)}

    def describe(self, op) -> dict:
        return {"kind": "verify", "preset": op["preset"], "height_bits": None}

    def execute(self, op, tracer=None):
        action, _, _ = self.canonical[op["preset"]][op["config"]]
        pi = self.relabellings[op["relabel"]]
        pi_inv = pi.inverse()
        relabelled = {g: pi * perm * pi_inv for g, perm in action.items()}
        return self.timed(self._op, op["preset"], relabelled)

    def _op(self, name, action):
        G = self.presets.resolve_group(name)
        sigma = self.nodal.SigmaConfig.from_action(G, action)
        report = self.nodal.verify(sigma)
        return report.equal, report.table

    def check(self, op, outcome) -> bool:
        _, equal, table = self.canonical[op["preset"]][op["config"]]
        return isinstance(outcome, tuple) and outcome == (equal, table)


def _permutations4():
    from itertools import permutations

    return list(permutations(range(4)))


# ---------------------------------------------------------------------------
# pencil_heights: invariant pencils with parameters of growing height
# ---------------------------------------------------------------------------

# Height bound for the numerators and denominators of c, d and for the
# coordinates of the Klein seed point.  Root finding scans divisors in time
# linear in the coefficients, so the cost grows with this bound; at 99 the
# seed code finishes every op well inside OP_TIMEOUT_S.
HEIGHT_BOUND = 99
D8_SIGMA = {8: "[G/(12)(34)]", 9: "[G/(24)]"}


class PencilHeights(InProcess):
    """Geometry-dominated ops: d8 cases 8 and 9, and Klein orbit pencils."""

    name = "pencil_heights"

    def setup(self) -> None:
        from nodalcount import geometry, nodal

        self.geo, self.nodal = geometry, nodal
        # Warm the group caches of both groups with one op of each kind.
        for op in (
            {"kind": "d8", "a": 1, "b": 1, "case": 8, "c": (1, 1), "d": (1, 1)},
            {"kind": "klein", "point": (1, 2, 3)},
        ):
            _, outcome = self.execute(op)
            if not self.check(op, outcome):
                raise RuntimeError(f"warm-up op {op} gave a wrong result")

    def ops(self, seed: int):
        rng = random.Random(seed)
        # Three d8 pencils to every Klein pencil: a d8 op costs about six
        # Klein ops, and this keeps the median inside the d8 distribution.
        kinds = Deck(rng, ("d8", "d8", "d8", "klein"))
        cases = Deck(rng, (8, 9))
        signs = Deck(rng, [(a, b) for a in (1, -1) for b in (1, -1)])
        heights = [LogUniform(rng, HEIGHT_BOUND) for _ in range(4)]

        def signed(height):
            return rng.choice((1, -1)) * height.draw()

        while True:
            if kinds.draw() == "d8":
                a, b = signs.draw()
                yield {
                    "kind": "d8", "a": a, "b": b, "case": cases.draw(),
                    "c": (signed(heights[0]), heights[1].draw()),
                    "d": (signed(heights[2]), heights[3].draw()),
                }
            else:
                yield {"kind": "klein", "point": tuple(signed(h) for h in heights[:3])}

    def describe(self, op) -> dict:
        values = op["c"] + op["d"] if op["kind"] == "d8" else op["point"]
        return {"kind": op["kind"], "preset": None,
                "height_bits": max(abs(v).bit_length() for v in values)}

    def execute(self, op, tracer=None):
        if op["kind"] == "d8":
            return self.timed(self._d8, op)
        return self.timed(self._klein, op, tracer)

    def _d8(self, op):
        geo = self.geo
        cases = geo.d8_case_suite(op["a"], op["b"], Fraction(*op["c"]), Fraction(*op["d"]))
        case = cases[op["case"] - 1]
        analysis = geo.analyze_pencil(case)
        return case, analysis, self.nodal.verify(analysis.sigma)

    def _klein(self, op, tracer):
        geo = self.geo
        block = tracer.span("geometry.klein_pencil") if tracer else nullcontext()
        try:
            with block:
                G, rep = geo.klein_representation()
                seed = geo.ProjPoint(op["point"])
                base = [geo.apply_matrix(rep[g], seed) for g in sorted(G.elements)]
                f, g = geo.pencil_through(base)
                if not geo.pencil_invariant(rep, f, g):
                    raise ArithmeticError("Klein pencil is not invariant")
            case = geo.PencilCase("klein", G, rep, f, g)
            analysis = geo.analyze_pencil(case)
        except geo.NotGeneral as exc:
            return exc
        return case, analysis, self.nodal.verify(analysis.sigma)

    def check(self, op, outcome) -> bool:
        geo = self.geo
        if op["kind"] == "klein" and isinstance(outcome, geo.NotGeneral):
            return _klein_orbit_degenerate(geo, op["point"])
        if not isinstance(outcome, tuple):
            return False
        case, analysis, report = outcome
        for p in analysis.base:
            if not (case.f(p).is_zero() and case.g(p).is_zero()):
                return False
        for (_, member), (l1, l2) in zip(analysis.members, analysis.lines):
            if not _proportional(member.coeffs, geo.conic_from_lines(l1, l2).coeffs):
                return False
        if report.equal != (len(report.witnesses) == 0):
            return False
        if op["kind"] == "d8":
            return not report.equal and report.sigma.sigma_string() == D8_SIGMA[op["case"]]
        orbit = _klein_orbit(geo, op["point"])
        return (
            not report.equal
            and report.sigma.sigma_string() == "[G]"
            and set(analysis.base) == {geo.ProjPoint(p) for p in orbit}
        )


def _proportional(u, v) -> bool:
    """u and v are nonzero scalar multiples of each other (2x2 minors vanish)."""
    return all(
        (u[i] * v[j] - u[j] * v[i]).is_zero()
        for i in range(len(u)) for j in range(i + 1, len(u))
    )


def _klein_orbit(geo, point) -> list:
    """The orbit of an integer point under the Klein matrices, in Fractions."""
    G, rep = geo.klein_representation()
    orbit = []
    for g in sorted(G.elements):
        M = [[entry.a for entry in row] for row in rep[g]]
        orbit.append(tuple(sum(M[i][k] * point[k] for k in range(3)) for i in range(3)))
    return orbit


def _klein_orbit_degenerate(geo, point) -> bool:
    """Two orbit points coincide projectively, or three are collinear."""
    pts = _klein_orbit(geo, point)

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    for i in range(4):
        for j in range(i + 1, 4):
            if cross(pts[i], pts[j]) == (0, 0, 0):
                return True
            for k in range(j + 1, 4):
                if sum(a * b for a, b in zip(cross(pts[i], pts[j]), pts[k])) == 0:
                    return True
    return False


WORKLOADS = {w.name: w for w in (CliCold, SweepWarm, PencilHeights)}
