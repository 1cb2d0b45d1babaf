"""Run commands for the benchmark from a small process, so each peak RSS is the child's own.

On Linux a child's `ru_maxrss` also covers the address space it was forked
from: exec folds the old one's high-water mark in. A CLI run started by the
benchmark process itself, which holds the generated plans, would report that
process's size instead of its own. This helper is started before any input is
generated and stays small. It reads one JSON request per line on stdin,
{"argv", "cwd", "env", "stderr"}, runs the command to exit, and answers one
JSON line, {"wall_s", "rss_mb", "code"}. It exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
