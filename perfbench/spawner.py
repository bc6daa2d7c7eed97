"""Start the benchmark's children from a small process of their own.

On Linux, the peak RSS that ``wait4`` reports for a child also covers the
memory of the process that spawned it, up to the child's ``exec``: with
``vfork`` that is the spawner's own peak, with ``fork`` its size at the time.
The runner holds numpy, the package and its oracles, so children started
from it would all report at least the runner's size. Started from this
process, which imports no more than ``subprocess``, they report their own.

Protocol, one JSON object per line: the runner writes
``{"cmd": [...], "cwd": ..., "env": {...}, "timeout": seconds}`` to standard
input; the spawner runs the command to completion and writes
``{"code": ..., "wall_s": ..., "rss_mb": ..., "cpu_s": ...}`` to standard
output. A child still running after ``timeout`` seconds is killed. The
spawner exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    started = time.perf_counter()
    proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(request["timeout"], proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
