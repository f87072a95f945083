"""The nodalcount benchmark: one workload, one seed, one closed-loop run.

Usage, from the repository root:

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and bench/README.md for why each exists):
``cli_cold``, ``sweep_warm`` and ``pencil_heights``.  The program is run
from ``src/`` of the same checkout; nothing is installed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics of a separate traced run.  The lines before it are a readable
summary and a provenance record.  Exit code 2, with no result line, when
the checkout holds no program to measure.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402

# Set-up is repeated in this many processes per run (this one included) and
# setup_s is their median.
SETUP_SAMPLES = 3
# In a traced run, this share of --seconds runs untraced; the rest replays
# the same ops traced, and the two are compared for trace.overhead_ratio.
UNTRACED_SHARE = 0.5
# Calibration samples may take up to 1/CALIBRATION_SHARE of a loop's time.
CALIBRATION_SHARE = 20
MODULES = ("permgroup", "burnside", "nodal", "geometry", "cli", "presets")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample (0 <= q <= 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def sloc(path: Path) -> int:
    """Lines that are neither blank nor only a comment."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


class Loop:
    """One closed-loop pass over the op stream: latencies and verdicts.

    At least one op runs, whatever the deadline.  A calibration sample
    (``workload.calibrate()``) is taken before the first op, after any op
    that ends CALIBRATION_SHARE times the last sample's duration or more
    after that sample, and after the last op.  ``workload.scale`` scales
    each op by the two samples around it.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops = []
        self.latencies = []
        self.ok = []
        self.window = []  # per op: index of the calibration sample before it
        self.calibration = []

    def _sample(self) -> float:
        start = time.perf_counter()
        self.calibration.append(self.workload.calibrate())
        return time.perf_counter() - start

    def run(self, ops, deadline, tracer=None) -> None:
        workload = self.workload
        cost = self._sample()
        last = time.perf_counter()
        for op in ops:
            if self.ops and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = len(self.ops)
            seconds, outcome = workload.execute(op, tracer)
            self.ops.append(op)
            self.latencies.append(seconds)
            self.window.append(len(self.calibration) - 1)
            self.ok.append(workload.check(op, outcome))
            if time.perf_counter() - last >= CALIBRATION_SHARE * cost:
                cost = self._sample()
                last = time.perf_counter()
        self._sample()

    def scaled(self) -> list:
        """Latencies at the reference speed."""
        cal = self.calibration
        return [
            self.workload.scale(op, seconds, cal[k], cal[k + 1])
            for op, seconds, k in zip(self.ops, self.latencies, self.window)
        ]


def setup_probes(args, count: int) -> list:
    """(raw, scaled) set-up seconds of ``count`` fresh processes doing this run's set-up."""
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        )
        samples.append(tuple(json.loads(probe.stdout.strip().splitlines()[-1])))
    return samples


def per_kind(workload, loop) -> dict:
    """Scaled median latency and op count of each kind of op."""
    groups = {}
    for op, seconds in zip(loop.ops, loop.scaled()):
        groups.setdefault(workload.describe(op)["kind"], []).append(seconds)
    return {k: {"ops": len(v), "p50_ms": 1000 * quantile(v, 0.5)} for k, v in groups.items()}


def input_summary(workload, ops) -> dict:
    kinds, presets, bits = {}, {}, []
    for op in ops:
        d = workload.describe(op)
        kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
        if d["preset"] is not None:
            presets[d["preset"]] = presets.get(d["preset"], 0) + 1
        if d["height_bits"] is not None:
            bits.append(d["height_bits"])
    return {
        "ops_per_kind": kinds,
        "ops_per_preset": presets,
        "height_bits": {
            "count": len(bits),
            "p50": quantile(bits, 0.5) if bits else 0,
            "max": max(bits) if bits else 0,
            "histogram": {b: bits.count(b) for b in sorted(set(bits))},
        },
    }


def end_to_end(args, workload, ops, setup):
    loop = Loop(workload)
    loop.run(ops, time.perf_counter() + args.seconds)
    samples = [setup] + setup_probes(args, SETUP_SAMPLES - 1)
    scaled = loop.scaled()
    correct = sum(loop.ok)
    metrics = {
        "setup_s": statistics.median(s for _, s in samples),
        "throughput_ops_s": correct / sum(scaled),
        "latency_p50_ms": 1000 * quantile(scaled, 0.5),
        "latency_p90_ms": 1000 * quantile(scaled, 0.9),
        "peak_rss_mb": workload.peak_rss_kb() / 1024,
    }
    extra = {
        "p90_samples_above": sum(1 for x in scaled if 1000 * x > metrics["latency_p90_ms"]),
        "per_kind": per_kind(workload, loop),
        "raw": {
            "setup_s": [r for r, _ in samples],
            "throughput_ops_s": correct / sum(loop.latencies),
            "latency_p50_ms": 1000 * quantile(loop.latencies, 0.5),
            "latency_p90_ms": 1000 * quantile(loop.latencies, 0.9),
            "scale_p50": quantile([s / r for s, r in zip(scaled, loop.latencies)], 0.5),
            "calibration_samples": len(loop.calibration),
        },
    }
    return loop.ops, loop.ok, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


def traced(args, workload, ops):
    from tracing import SPAN_NAMES, Tracer

    start = time.perf_counter()
    plain = Loop(workload)
    plain.run(ops, start + UNTRACED_SHARE * args.seconds)
    tracer = Tracer()
    hits0, misses0 = tracer.cache_totals()
    tracer.install()
    replay = Loop(workload)
    try:
        replay.run(iter(plain.ops), start + args.seconds, tracer)
    finally:
        tracer.uninstall()
    n = len(replay.ops)
    hits, misses = tracer.cache_totals()
    hits, misses = hits - hits0, misses - misses0
    # Span times are scaled to the reference speed by their op's factor.
    table = {}
    unattributed = 0.0
    local = tracer.per_op()
    for i, (raw, scaled) in enumerate(zip(replay.latencies, replay.scaled())):
        if i in tracer.remote:
            report = tracer.remote[i]
            root_s, spans = report["root_s"], report["spans"]
            hits += report["cache"][0]
            misses += report["cache"][1]
        else:
            root_s, spans = local.get(i, (0.0, {}))
        factor = scaled / raw
        unattributed += (raw - root_s) * factor
        for name, (calls, self_s) in spans.items():
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s * factor
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = table.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "1/op")
        metrics[f"{name}.self_ms"] = (1000 * self_s / n, "ms/op")
    c = tracer.counters
    lookups = hits + misses
    bits = [b for b in (workload.describe(op)["height_bits"] for op in plain.ops) if b is not None]
    metrics.update({
        "permgroup.subgroups_enumerated": (c["permgroup.subgroups_enumerated"] / n, "1/op"),
        "permgroup.cache_lookups": (lookups / n, "1/op"),
        "permgroup.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "nodal.configs_verified": (c["nodal.configs_verified"] / n, "1/op"),
        "nodal.orbits": (c["nodal.orbits"] / n, "1/op"),
        "nodal.witness_rows": (c["nodal.witness_rows"] / n, "1/op"),
        "geometry.pencils": (c["geometry.pencils"] / n, "1/op"),
        "geometry.general_ratio": (
            c["geometry.general"] / c["geometry.pencils"] if c["geometry.pencils"] else 0.0,
            "ratio"),
        "input.height_bits_p50": (quantile(bits, 0.5) if bits else 0.0, "bits"),
        "input.height_bits_max": (max(bits) if bits else 0, "bits"),
        "trace.overhead_ratio": (sum(replay.scaled()) / sum(plain.scaled()[:n]), "ratio"),
        "trace.unattributed": (1000 * unattributed / n, "ms/op"),
    })
    package = ROOT / "src" / "nodalcount"
    for module in MODULES:
        metrics[f"sloc.{module}"] = (sloc(package / f"{module}.py"), "lines")
    metrics["sloc.total"] = (sum(sloc(p) for p in sorted(package.glob("*.py"))), "lines")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    return (plain.ops + replay.ops, plain.ok + replay.ok, metrics,
            {"traced_ops": n, "untraced_ops": len(plain.ops)})


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every child it starts: the calibration
    # samples then time the same core the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "nodalcount" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'nodalcount'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](ROOT)
    try:
        workload.setup()
        ops = workload.ops(args.seed)
        first = next(ops)
        raw_setup = time.perf_counter() - PROCESS_START
        setup = (raw_setup, raw_setup * calibrate.REFERENCE_S / calibrate.median())
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        def stream():
            yield first
            yield from ops

        if args.trace:
            ops, ok, metrics, extra = traced(args, workload, stream())
        else:
            ops, ok, metrics, extra = end_to_end(args, workload, stream(), setup)
    finally:
        workload.close()
    attempted = len(ops)
    failed = attempted - sum(ok)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "inputs": input_summary(workload, ops),
        **extra,
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  "
          f"failed {failed}  fail_ratio {failed / max(attempted, 1):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
