"""Spawns the benchmark's operation processes on behalf of run.py.

Linux charges a child's peak RSS (``ru_maxrss``) with the memory of the
process that spawned it, because the child starts in that process's address
space (vfork) or in a copy of it (fork).  run.py holds large reference
values of the inputs, so it spawns every operation through this small
process, which imports nothing heavy; the peak RSS it reports is then the
operation's own.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stderr": path
or null, "timeout": seconds}``; one JSON reply per stdout line, ``{"rc":
exit code, "wall": seconds, "rss_mb": MB}``.  The operation inherits this
process's environment and working directory, and its standard output is
discarded.  It is timed from spawn to exit; one still running after
``timeout`` is killed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    err = open(req["stderr"], "wb") if req["stderr"] else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if err is not subprocess.DEVNULL:
            err.close()
    return {"rc": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
