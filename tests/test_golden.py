"""Byte-for-byte replay of the golden CLI transcripts (see make_golden.py)."""

import difflib
import json

from make_golden import GOLDEN, capture, golden_argvs


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
