"""Start the cli_cold child processes from a small interpreter.

On Linux a child inherits, at exec, the resident-set high-water mark of the
process that started it, so a child of the harness would report the
harness's memory as its own ``ru_maxrss``.  This helper imports little and
stays well below the size of any nodalcount command, so the ``ru_maxrss``
that ``wait4`` returns for its children is theirs.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "timeout": seconds, "capture": bool}``, and one JSON reply
per line on stdout, ``{"seconds", "exit", "sha256", "maxrss_kb"}`` plus
``"stdout"`` when ``capture`` is set.  ``seconds`` runs from spawn to exit;
``exit`` is null when the child was killed at its timeout.  The helper
exits when its stdin closes.
"""

import hashlib
import json
import os
import select
import signal
import sys
import time


def run(argv, timeout):
    read_end, write_end = os.pipe()
    devnull = os.open(os.devnull, os.O_RDWR)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, devnull, 0),
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_DUP2, devnull, 2),
        (os.POSIX_SPAWN_CLOSE, read_end),
    ])
    os.close(write_end)
    os.close(devnull)
    chunks = []
    killed = False
    deadline = start + timeout
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            os.kill(pid, signal.SIGKILL)
            killed = True
            break
        ready, _, _ = select.select([read_end], [], [], left)
        if ready:
            chunk = os.read(read_end, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    os.close(read_end)
    out = b"".join(chunks)
    return seconds, None if killed else os.waitstatus_to_exitcode(status), out, usage.ru_maxrss


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        seconds, code, out, maxrss = run(request["argv"], request["timeout"])
        reply = {"seconds": seconds, "exit": code,
                 "sha256": hashlib.sha256(out).hexdigest(), "maxrss_kb": maxrss}
        if request.get("capture"):
            reply["stdout"] = out.decode("utf-8", "replace")
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
