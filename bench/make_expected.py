"""Regenerate ``cli_expected.json``: the cli_cold command universe and its outputs.

Usage, from the repository root:

    python3 bench/make_expected.py

Each argv of the universe is run as ``python -m nodalcount <argv>`` with
``PYTHONPATH=src``; its exit code and the sha256 of its stdout become the
expectation the benchmark checks every cli_cold op against.  Run it only
when a change to the program is meant to change its output.

Each entry also keeps ``cost_ms``, the faster of two runs, each scaled by
the spawned calibration samples around it (``calibrate.py`` run as a
script) to SPAWNED_REFERENCE_S.  The workload uses it only to stratify its
draws by cost and to split each command into start-up and computation, so
the costs stay as measured at the commit that generated the file and need
no update when the program gets faster.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import calibrate  # noqa: E402

from nodalcount import enumerate_sigma_configs  # noqa: E402
from nodalcount.presets import PRESET_ORDER, resolve_group  # noqa: E402


def universe():
    """(kind, preset, height_bits, argv) for every command the workload may run."""
    for fmt in ("text", "json"):
        head = ["--format", fmt]
        for preset in PRESET_ORDER:
            yield "marks", preset, None, head + ["marks", "--group", preset]
            yield "verify-all", preset, None, head + ["verify-all", "--group", preset]
            for sigma in enumerate_sigma_configs(resolve_group(preset)):
                yield "verify", preset, None, head + [
                    "verify", "--group", preset, "--sigma", sigma.sigma_string()]
        # The seed point of the Klein pencil is [1:2:3]: height 3, two bits.
        yield "klein", None, 2, head + ["counterexample", "klein"]
        for a in (1, -1):
            for b in (1, -1):
                for case in range(1, 10):
                    yield "d8", None, 1, head + [
                        "counterexample", "d8", "--a", str(a), "--b", str(b),
                        "--c", "1", "--d", "1", "--case", str(case)]
        yield "theorem-sweep", None, None, head + ["theorem-sweep"]


def spawned_calibration() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, calibrate.__file__], check=True, timeout=60)
    return time.perf_counter() - start


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entries = []
    for kind, preset, bits, argv in universe():
        runs, costs = [], []
        for _ in range(2):
            before = spawned_calibration()
            start = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "nodalcount", *argv],
                capture_output=True, env=env, cwd=ROOT, timeout=120,
            )
            seconds = time.perf_counter() - start
            scale = 2 * calibrate.SPAWNED_REFERENCE_S / (before + spawned_calibration())
            runs.append(run)
            costs.append(1000 * seconds * scale)
        if run.returncode not in (0, 1, 2) or runs[0].stdout != run.stdout:
            raise SystemExit(f"{argv}: exit {run.returncode}: {run.stderr.decode()}")
        entries.append({
            "kind": kind, "preset": preset, "height_bits": bits,
            "argv": argv, "exit": run.returncode,
            "sha256": hashlib.sha256(run.stdout).hexdigest(),
            "cost_ms": round(min(costs), 1),
        })
    out = ROOT / "bench" / "cli_expected.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} expectations to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
