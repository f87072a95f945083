"""Byte-for-byte replay of the golden CLI transcripts (see make_golden.py).

The benchmark's ``cli_cold`` expectations (bench/cli_expected.json) are
replayed too: every argv must keep its exit code and stdout sha256.
"""

import difflib
import hashlib
import json

from make_golden import GOLDEN, HERE, capture, golden_argvs

BENCH_EXPECTED = HERE.parent / "bench" / "cli_expected.json"


def test_cli_matches_golden_transcripts():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in records] == golden_argvs()
    failures = []
    for record in records:
        code, stdout = capture(record["argv"])
        if code == record["exit"] and stdout == record["stdout"]:
            continue
        diff = difflib.unified_diff(
            record["stdout"].splitlines(keepends=True),
            stdout.splitlines(keepends=True),
            "golden",
            "actual",
        )
        failures.append(
            f"argv {record['argv']}: exit {code} (golden {record['exit']})\n"
            + "".join(diff)
        )
    assert not failures, "\n".join(failures)


def test_cli_matches_benchmark_expectations():
    entries = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))["entries"]
    failures = []
    for entry in entries:
        code, stdout = capture(entry["argv"])
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if code != entry["exit"] or digest != entry["sha256"]:
            failures.append(
                f"argv {entry['argv']}: exit {code} (expected {entry['exit']}), "
                f"stdout sha256 {digest} (expected {entry['sha256']})"
            )
    assert not failures, "\n".join(failures)
