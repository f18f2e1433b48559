"""A batch of jobs run by forked worker processes.

Only ``canard-ctl run --jobs N`` imports this module, so a run without
workers does not compile it.  It imports no package module, and no pool:
the parent forks while it is single-threaded, starts no thread and pickles
nothing, since the workers inherit everything they read.
"""

from __future__ import annotations

import mmap
import os
import sys
import traceback
from typing import Callable, List, Sequence

# a write of at most 512 bytes into a pipe is atomic on every POSIX system
# (PIPE_BUF is never smaller), so each one adds whole 4-byte records
_ATOMIC_WRITE = 512


def _work(run: Callable[[int], int], rfd: int, wfd: int, shared: mmap.mmap,
          at: int) -> None:
    """A worker: runs each job it claims from the pipe ``rfd``, then ends
    its process.  It never returns into its caller."""
    status = 1
    try:
        os.close(wfd)
        while True:
            record = os.read(rfd, 4)
            if not record:
                break
            i = int.from_bytes(record, "little")
            shared[at:at + 4] = (i + 1).to_bytes(4, "little")
            shared[i] = run(i) + 1
        status = 0
    except BaseException:
        traceback.print_exc()
        raise  # only as far as the os._exit below
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def run_forked(names: Sequence[str], workers: int,
               run: Callable[[int], int]) -> List[int]:
    """The exit code ``run(i)`` of each job i, run by ``workers`` forked
    processes; ``names[i]`` names job i on stderr.

    The parent fills a pipe with one 4-byte record per job index, and a
    worker claims the next record whenever it is free.  It writes the job's
    code into a shared anonymous map, where no other process writes it, and
    the parent reads the map after it has reaped every worker, so no
    channel a worker writes to can fill up.  A job whose worker ends before
    it reports exits 5.  Jobs left unclaimed because every worker ended run
    in a new round.
    """
    count = len(names)
    codes: List[int] = [-1] * count
    todo = list(range(count))
    while todo:
        n = min(workers, len(todo))
        # per job its code + 1 (0: none yet); per worker its last claim + 1
        with mmap.mmap(-1, count + 4 * n) as shared:
            rfd, wfd = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            pids = []
            for slot in range(n):
                pid = os.fork()
                if pid == 0:
                    _work(run, rfd, wfd, shared, count + 4 * slot)
                pids.append(pid)
            os.close(rfd)
            records = b"".join(i.to_bytes(4, "little") for i in todo)
            try:
                for k in range(0, len(records), _ATOMIC_WRITE):
                    os.write(wfd, records[k:k + _ATOMIC_WRITE])
            except BrokenPipeError:  # every worker has ended
                pass
            finally:
                os.close(wfd)
            for slot, pid in enumerate(pids):
                status = os.waitpid(pid, 0)[1]
                at = count + 4 * slot
                i = int.from_bytes(shared[at:at + 4], "little") - 1
                if i >= 0 and not shared[i]:
                    code = os.waitstatus_to_exitcode(status)
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    print(f"internal error: {names[i]}: its worker ended before "
                          f"it reported (wait status {status}, {how})",
                          file=sys.stderr)
                    codes[i] = 5
            for i in todo:
                if shared[i]:
                    codes[i] = shared[i] - 1
        left = [i for i in todo if codes[i] < 0]
        if len(left) == len(todo):  # no worker claimed a job: stop here
            for i in left:
                print(f"internal error: {names[i]}: no worker ran it",
                      file=sys.stderr)
                codes[i] = 5
            left = []
        todo = left
    return codes
