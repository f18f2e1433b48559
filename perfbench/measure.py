"""Run one command; report its exit code, wall time, CPU time and peak RSS.

    python3 perfbench/measure.py REPORT TIMEOUT_S LOG -- COMMAND...

The command's output goes to LOG, the measurement as JSON to REPORT.  CPU
time and peak RSS come from wait4, so they include every worker process
the command reaped; a command still running after TIMEOUT_S is killed with
its whole process group.

This runs as its own small process because Linux carries the pre-exec RSS
high-water mark of the forking process over into the child's peak RSS: a
child forked from run.py, which grows as it reads artifacts, would report
run.py's peak instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main(argv):
    report, timeout, log = argv[0], float(argv[1]), argv[2]
    command = argv[argv.index("--") + 1:]
    timed_out = threading.Event()
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        # a process group of its own, to kill it whole, but the same session:
        # a new session gets its own scheduler autogroup, against which the
        # nice-19 speed probes would get half the CPU instead of a sliver
        proc = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT,
                                preexec_fn=os.setpgrp)

        def kill():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # a worker that outlived its parent
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"exit": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0,
                   "timed_out": timed_out.is_set()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
