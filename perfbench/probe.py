"""Host-speed probe: a low-priority loop that publishes how fast it runs.

    python3 perfbench/probe.py FILE CPU

The probe pins itself to CPU at nice 19 and runs a fixed pure-Python loop.
Next to a busy process on the same CPU the scheduler gives it about 1.5 % of
the CPU in short slices spread over the whole time that process runs, so the
loop's speed samples the speed the CPU gave the benchmark, moment by moment.
On a shared VM that speed moves by 20 % or more within seconds, unseen by the
guest (no steal time is reported); the benchmark divides it out.

After every chunk of iterations the probe writes (sequence, iterations, CPU
seconds) as three doubles to FILE, which the benchmark maps; an odd sequence
number marks a write in progress.  The probe exits when its parent does.
"""

import math
import mmap
import os
import struct
import sys
import time

CHUNK = 500  # iterations between writes, about 0.4 ms
LAYOUT = struct.Struct("ddd")


def main(argv):
    path, cpu = argv[0], int(argv[1])
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), LAYOUT.size)
    clock = time.process_time
    state = {"x": 0.5}
    seq, done = 0.0, 0
    while os.getppid() == parent:
        for _ in range(CHUNK):
            # float arithmetic, a dict and a C call: the interpreter work of
            # the integrator's inner loop
            x = state["x"] * 1.0001 + math.sqrt(done + 1.0)
            state["x"] = x - int(x)
            done += 1
        cpu_s = clock()
        shared[:8] = struct.pack("d", seq + 1.0)
        shared[8:] = struct.pack("dd", float(done), cpu_s)
        seq += 2.0
        shared[:8] = struct.pack("d", seq)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
