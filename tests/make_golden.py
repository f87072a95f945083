"""Regenerate the golden CLI transcripts in tests/data/cli_golden.json.

Usage, from the repository root:

    python3 tests/make_golden.py

Each transcript is one argv run in process through ``nodalcount.cli.main``
with its exit code and full stdout.  ``tests/test_golden.py`` replays them
byte for byte, so rerun this only for a change that alters output on
purpose, and review the diff of the data file.  Stdlib only.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "cli_golden.json"
sys.path.insert(0, str(HERE.parent / "src"))

from nodalcount.cli import main  # noqa: E402
from nodalcount.presets import PRESET_ORDER  # noqa: E402


def golden_argvs() -> list:
    """Every command the transcripts cover, in both output formats."""
    commands = [["marks", "--group", name] for name in PRESET_ORDER]
    commands += [["verify-all", "--group", name] for name in PRESET_ORDER]
    commands.append(["counterexample", "klein"])
    commands += [["counterexample", "d8", "--case", str(k)] for k in range(1, 10)]
    commands.append(["theorem-sweep"])
    # The labels of the parametrised pencils 8 and 9 away from c = d = 1.
    # Mixed signs put lines and base points in Q(sqrt(210)) and Q(sqrt(105)).
    for params in (
        ["--c=3/2", "--d=-5"],
        ["--a=-1", "--b=-1", "--c=-7/3", "--d=2"],
        ["--a=1", "--b=-1", "--c=5/3", "--d=-7"],
        ["--a=-1", "--b=1", "--c=5/3", "--d=-7"],
    ):
        commands += [["counterexample", "d8", *params, "--case", k] for k in "89"]
    # The not-general report of pencils 1-7 at the other sign pair.
    commands += [
        ["counterexample", "d8", "--a=-1", "--b=-1", "--case", str(k)] for k in range(1, 8)
    ]
    return [["--format", fmt, *cmd] for fmt in ("text", "json") for cmd in commands]


def capture(argv: list) -> tuple:
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def main_regenerate() -> int:
    stored = {}
    if GOLDEN.exists():
        for record in json.loads(GOLDEN.read_text(encoding="utf-8")):
            stored[tuple(record["argv"])] = record
    records = []
    changed = added = 0
    for argv in golden_argvs():
        code, stdout = capture(argv)
        record = {"argv": argv, "exit": code, "stdout": stdout}
        old = stored.get(tuple(argv))
        if old is None:
            added += 1
        elif old != record:
            changed += 1
        records.append(record)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(
        f"wrote {len(records)} transcripts to {GOLDEN}: "
        f"{changed} changed, {added} added"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
