"""Run one nodalcount command in this fresh interpreter, with spans.

Usage (PYTHONPATH must reach ``src``):

    python3 bench/cli_driver.py [--format json] marks --group S4

The command's own output is captured, not printed.  The driver prints one
JSON object: the exit code, the sha256 of the captured stdout, the root
span time, per-span calls and self seconds, the package's lru_cache hits
and misses, and the tracer counters.
"""

import sys
import time

# Import the package first, so that the cli.import span covers every module
# the command needs, as it does for ``python -m nodalcount``.
_start = time.perf_counter()
import nodalcount.cli as cli  # noqa: E402

_end = time.perf_counter()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    tracer.op = 0
    tracer.spans.append([0, "cli.import", None, _start, _end])
    tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = cli.main(argv)
    tracer.uninstall()
    root_s, table = tracer.per_op()[0]
    hits, misses = tracer.cache_totals()
    json.dump(
        {
            "exit": code,
            "sha256": hashlib.sha256(captured.getvalue().encode("utf-8")).hexdigest(),
            "root_s": root_s,
            "spans": table,
            "cache": [hits, misses],
            "counters": tracer.counters,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
