"""Memory budgets, counted with tracemalloc.

perfbench's ``peak_rss_mb`` moves with where a process's allocations land,
by about as much as its bound; the traced bytes below move by about 10 KB
at most from one process to the next, so they are the memory gate.  Each
budget is the measurement when it was set plus a stated margin.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from canardctl.cli import ExperimentConfig, run_experiment
from canardctl.controllers import (
    FoldLaw,
    NeighborhoodParams,
    default_neighborhoods,
    fast_u,
)
from canardctl.core import ControllerGains, ScaledLevel, SystemParams
from canardctl.errors import PatternDeviationError
from canardctl.mmo import MmoPattern, run_pattern
from canardctl.models import FoldField, fold_rhs
from canardctl.sim import Watcher, integrate

# 32.3 B per point measured (four 8-byte columns); 25 % margin.  Points kept
# as tuples of float objects held 174 B each.
_BYTES_PER_POINT = 40.0
# 1.06-1.07 MB measured for 28,462 points; about 22 % margin.  Tuples of float
# objects peaked at 5.29 MB.
_VDP_PLANT_PEAK = 1.3e6
# fold-fast-hot at its defaults, run and written through run_experiment:
# 1,038,122-1,038,189 B measured, about 10 % margin.  With the residual
# evaluated at every point and every SVG joined into one string before it
# was written, the run peaked at 1,253,298 B.
_FOLD_FAST_HOT_PEAK = 1.14e6
# 42 KB measured for a pattern of 10^5 loops that deviates on its first; a
# list of its 10^5 segments, built before the first loop, peaked at 9.6 MB
_LONG_PATTERN_PEAK = 2e6
# ``import canardctl.cli`` in a fresh interpreter without the site module
# (-S), so that the modules a site hook happens to load first do not hide
# their cost; the package compiles from source unless a bytecode cache is
# there, which only lowers the reading.  3,687,353-3,687,836 B held and
# 4,654,113-4,654,659 B peak measured on Python 3.11.7, 50 KB margin each.
# With frozen dataclasses for the package's records the import held
# 3,798,254 B and peaked at 4,762,003 B.  With the site hook loaded first it
# holds 1.82 MB and peaks at 2.80 MB (1.93 and 2.90 MB with the dataclasses).
_CLI_IMPORT_HELD = 3.737e6
_CLI_IMPORT_PEAK = 4.704e6


def _traced(run):
    """run() under tracemalloc: (result, bytes still held, peak bytes)."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_a_long_planar_run_holds_few_bytes_per_point():
    # fold-fast at its defaults, as its runner integrates it
    params = SystemParams(0.01, -0.1)
    gains = ControllerGains(1.0, 2.0)
    level = ScaledLevel(0.25, 400.0)
    law = FoldLaw(params, gains, level)
    field = FoldField(params, channel="fast")
    section = Watcher("section-crossing", lambda p: p[0] - params.alpha)
    traj, held, _ = _traced(lambda: integrate(
        lambda p, u: fold_rhs(field, p, u),
        lambda p: fast_u(law, p),
        (0.2, 0.3), (0.0, 1400.0), watchers=[section]))
    assert len(traj) == 6934
    assert held / len(traj) <= _BYTES_PER_POINT


def _warm_up(run):
    """run() under a no-op profile hook.

    Python 3.11 looks up the line of every traced allocation by scanning
    its function's line table, unless a profile hook has seen the function;
    one short run under a no-op hook makes a traced run of the same code
    several times faster and allocates nothing it counts.
    """
    hook = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        run()
    finally:
        sys.setprofile(hook)


def test_the_supervised_benchmark_run_peaks_below_its_budget():
    # the vdp-plant workload's run: LLLSSSS four times over
    eps = 0.01
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0)
    nbhd = default_neighborhoods(eps)
    _warm_up(lambda: run_pattern(
        MmoPattern.parse("1L:0.75:0.01,1S:1.25:-0.01"), eps, gains, nbhd))
    (traj, loops), _, peak = _traced(lambda: run_pattern(
        MmoPattern.parse("3L:0.75:0.01,4S:1.25:-0.01", repeat=4), eps,
        gains, nbhd))
    assert "".join(lb.label[0] for lb in loops) == "LLLSSSS" * 4
    assert len(traj) == 28462
    assert peak <= _VDP_PLANT_PEAK


def test_a_fold_run_and_its_artifacts_peak_below_their_budget(tmp_path):
    # the run's two trajectories are the live data; what the runner and the
    # writers add on top is a few chunks, not a copy per point
    _warm_up(lambda: run_experiment(
        ExperimentConfig("fold-fast-hot", {"t_end": 5.0}), tmp_path / "warm"))
    cfg = ExperimentConfig("fold-fast-hot")
    code, _, peak = _traced(lambda: run_experiment(cfg, tmp_path / "run"))
    assert code == 0
    assert peak <= _FOLD_FAST_HOT_PEAK


def test_a_long_pattern_costs_nothing_per_loop_it_asks_for():
    # strangled activation tubes: the first loop closes small against its
    # LAO request, so the run ends there, whatever the count
    eps = 0.01
    starved = NeighborhoodParams(beta1=1e-3, beta2=1e-3, y_min=2 * eps)
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0)
    pattern = MmoPattern.parse("100000L:0.75:0.01")

    def run():
        with pytest.raises(PatternDeviationError) as exc:
            run_pattern(pattern, eps, gains, starved)
        return exc.value

    err, _, peak = _traced(run)
    assert err.achieved == () and err.got == "SAO"
    assert peak <= _LONG_PATTERN_PEAK


def test_importing_the_cli_stays_within_its_budget():
    # -B: the run writes no bytecode cache that a later run would read
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import json, tracemalloc\n"
            "tracemalloc.start()\n"
            "import canardctl.cli\n"
            "print(json.dumps(tracemalloc.get_traced_memory()))\n")
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    held, peak = json.loads(out)
    assert held <= _CLI_IMPORT_HELD
    assert peak <= _CLI_IMPORT_PEAK
