"""Tests for the forked batch runner behind `canard-ctl run --jobs`."""

import os
import subprocess
import sys
from pathlib import Path

from canardctl import batch

# more workers than this machine has cores, and more records than a pipe
# holds (4 bytes each; 64 KiB on Linux), so the parent blocks on the pipe
# while the workers drain it
_STRESS = """
import os, sys
from canardctl.batch import run_forked

count = int(sys.argv[2])
fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)

def run(i):
    os.write(fd, b"%d\\n" % i)  # one append per run: no two interleave
    return i % 7

codes = run_forked([str(i) for i in range(count)], 4, run)
sys.exit(codes != [i % 7 for i in range(count)])
"""


def test_every_job_runs_exactly_once_and_reports_its_code(tmp_path):
    count = 20000
    log = tmp_path / "ran.log"
    path = [str(Path(batch.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", _STRESS, str(log), str(count)],
                          env=env, timeout=120)
    assert done.returncode == 0
    ran = sorted(int(line) for line in log.read_text().split())
    assert ran == list(range(count))
