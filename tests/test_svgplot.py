"""Structural tests for the SVG emitters.

The files double as regression fixtures, so beyond well-formedness we pin
byte determinism and the presence/absence of each overlay element class.
"""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from array import array
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardctl import svgplot
from canardctl.controllers import default_neighborhoods
from canardctl.core import PhasePoint
from canardctl.sim import Trajectory
from canardctl.svgplot import (
    _Bounds,
    _Mapper,
    _polyline_points,
    _thin,
    emit_phase_svg,
    emit_timeseries_svg,
)
from test_sim import _points

_NS = "{http://www.w3.org/2000/svg}"


def _parabola_traj(n=60, lo=-1.0, hi=1.0):
    ts = [i / (n - 1) for i in range(n)]
    xs = [lo + (hi - lo) * t for t in ts]
    pts = [PhasePoint(x, x * x + 0.05 * math.sin(7 * x)) for x in xs]
    return Trajectory(ts, zip(*pts), tuple(0.1 * x for x in xs))


def _classes(path, tag):
    root = ET.parse(path).getroot()
    return [el.get("class") for el in root.iter(f"{_NS}{tag}")]


class TestPhasePortrait:
    def test_fold_overlay_single_dashed_parabola(self, tmp_path):
        out = tmp_path / "fold.svg"
        emit_phase_svg([_parabola_traj()], out, critical="fold")
        root = ET.parse(out).getroot()
        assert root.tag == f"{_NS}svg"
        assert root.get("version") == "1.1"
        dashed = [el for el in root.iter(f"{_NS}polyline")
                  if el.get("class") == "overlay-critical-manifold"]
        assert len(dashed) == 1
        assert dashed[0].get("stroke-dasharray") == "6 4"

    def test_neighborhoods_shade_two_region_kinds(self, tmp_path):
        out = tmp_path / "vdp.svg"
        nbhd = default_neighborhoods(0.01)._replace(y_h=1.25)
        emit_phase_svg([_parabola_traj()], out, critical="vdp", nbhd=nbhd)
        cls = _classes(out, "polygon")
        assert "region-n1" in cls
        assert "region-n2" in cls

    def test_empty_overlays_trajectory_only(self, tmp_path):
        out = tmp_path / "bare.svg"
        emit_phase_svg([_parabola_traj()], out)
        polys = _classes(out, "polyline")
        assert polys == ["traj"]
        assert _classes(out, "polygon") == []

    def test_reference_cycle_overlay(self, tmp_path):
        out = tmp_path / "cycle.svg"
        angles = [2 * math.pi * i / 64 for i in range(65)]
        ring = ([math.cos(a) for a in angles], [math.sin(a) for a in angles])
        emit_phase_svg([_parabola_traj()], out, cycle=ring)
        assert "overlay-reference-cycle" in _classes(out, "polyline")

    def test_multiple_trajectories_get_distinct_colors(self, tmp_path):
        out = tmp_path / "multi.svg"
        emit_phase_svg([_parabola_traj(), _parabola_traj(40, -0.5, 0.5)], out)
        root = ET.parse(out).getroot()
        strokes = [el.get("stroke") for el in root.iter(f"{_NS}polyline")
                   if el.get("class") == "traj"]
        assert len(strokes) == 2 and strokes[0] != strokes[1]

    def test_unknown_critical_manifold_rejected(self, tmp_path):
        out = tmp_path / "bogus.svg"
        with pytest.raises(ValueError, match="bogus"):
            emit_phase_svg([_parabola_traj()], out, critical="bogus")
        assert not out.exists()

    def test_empty_trajectory_rejected(self, tmp_path):
        empty = Trajectory((), (), ())
        with pytest.raises(ValueError):
            emit_timeseries_svg(empty, tmp_path / "x.svg")


class TestTimeseries:
    def test_series_polyline_and_labels(self, tmp_path):
        out = tmp_path / "u.svg"
        emit_timeseries_svg(_parabola_traj(), out, label="mu2")
        root = ET.parse(out).getroot()
        assert "series" in [el.get("class") for el in root.iter(f"{_NS}polyline")]
        texts = [el.text for el in root.iter(f"{_NS}text")]
        assert "t" in texts and "mu2" in texts

    def test_nan_control_breaks_polyline(self, tmp_path):
        ts = (0.0, 1.0, 2.0, 3.0, 4.0)
        pts = tuple(PhasePoint(t, t) for t in ts)
        us = (0.0, 1.0, float("nan"), 1.0, 0.0)
        out = tmp_path / "gap.svg"
        emit_timeseries_svg(Trajectory(ts, zip(*pts), us), out)
        runs = [el for el in ET.parse(out).getroot().iter(f"{_NS}polyline")
                if el.get("class") == "series"]
        assert len(runs) == 2


class TestDeterminism:
    def test_identical_bytes_across_calls(self, tmp_path):
        nbhd = default_neighborhoods(0.01)._replace(y_h=1.25)
        overlays = {"critical": "vdp", "nbhd": nbhd,
                    "cycle": ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0))}
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_phase_svg([_parabola_traj()], a, **overlays)
        emit_phase_svg([_parabola_traj()], b, **overlays)
        assert a.read_bytes() == b.read_bytes()

    def test_no_timestamp_like_content(self, tmp_path):
        out = tmp_path / "c.svg"
        emit_phase_svg([_parabola_traj()], out, critical="fold")
        text = out.read_text()
        assert "date" not in text.lower()
        assert text.endswith("</svg>\n")

    def test_point_thinning_caps_element_size(self, tmp_path):
        n = 20000
        ts = tuple(i * 1e-3 for i in range(n))
        pts = tuple(PhasePoint(math.cos(t), math.sin(t)) for t in ts)
        traj = Trajectory(ts, zip(*pts), tuple(0.0 for _ in ts))
        out = tmp_path / "big.svg"
        emit_phase_svg([traj], out)
        root = ET.parse(out).getroot()
        counts = [len(el.get("points").split()) for el in root.iter(f"{_NS}polyline")
                  if el.get("class") == "traj"]
        assert sum(counts) <= 4001


# -- the column writers against the per-point code they replaced ----------
# The references below are the per-pair bounds loop, the per-point mapping
# through _fmt, and thinning of zipped (t, u) pairs, kept here as they were.

def _ref_fmt(v):
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


class _RefBounds(_Bounds):
    # padded() is unchanged; add() is the per-pair loop
    def add(self, x, y):
        if math.isfinite(x) and math.isfinite(y):
            self.x_lo = min(self.x_lo, x)
            self.x_hi = max(self.x_hi, x)
            self.y_lo = min(self.y_lo, y)
            self.y_hi = max(self.y_hi, y)


def _ref_pt(m, x, y):
    return f"{_ref_fmt(m.px(x))},{_ref_fmt(m.py(y))}"


def _ref_polyline_points(m, pts):
    runs, cur = [], []
    for x, y in pts:
        if math.isfinite(x) and math.isfinite(y):
            cur.append(_ref_pt(m, x, y))
        elif cur:
            runs.append(" ".join(cur))
            cur = []
    if cur:
        runs.append(" ".join(cur))
    return runs


def _ref_thin(seq, cap=4000):
    if len(seq) <= cap:
        return list(seq)
    stride = -(-len(seq) // cap)
    out = list(seq[::stride])
    if out[-1] is not seq[-1]:
        out.append(seq[-1])
    return out


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def _box_bits(b):
    return _bits(b.x_lo, b.x_hi, b.y_lo, b.y_hi)


def _ref_box(pairs):
    ref = _RefBounds()
    for x, y in pairs:
        ref.add(x, y)
    return ref


_NAN, _INF = math.nan, math.inf

# (xs, ys) columns: each names a path the column code must take like the
# per-pair loop
_COLUMN_CASES = {
    "all-finite": ([0.5, -1.25, 3.0, 2.0], [1.0, 0.25, -4.0, 8.0]),
    "nan-splits-a-run": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, _NAN, 1.0, 0.0]),
    "inf-in-x": ([-_INF, 1.0, 2.0, _INF, 0.5], [3.0, 2.0, 1.0, 0.0, -1.0]),
    "zero-tie-plus-first": ([0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, 2.0, -0.0]),
    "zero-tie-minus-first": ([-0.0, 0.0, -1.0, -1.0], [0.0, -0.0, 0.0, 1.0]),
    "zero-tie-behind-a-nan": ([_NAN, 0.0, -0.0], [0.0, -0.0, 0.0]),
    "sum-overflows": ([1e308, 1e308, -1e308, 5.0], [-1e308, -1e308, 1.0, 2.0]),
    "subnormal": ([5e-324, -5e-324, 0.0], [5e-324, 1.0, -5e-324]),
    "no-finite-pair": ([_NAN, 1.0, _INF], [0.0, -_INF, 2.0]),
    "empty": ([], []),
    # runs of 257 and 442 points, longer than one chunk of _mapped
    "runs-past-a-chunk": ([0.01 * i - 2.0 for i in range(700)],
                          [_NAN if i == 257 else 0.02 * i - 4.0
                           for i in range(700)]),
}


@pytest.mark.parametrize("case", sorted(_COLUMN_CASES))
def test_bounds_of_columns_match_the_per_pair_loop(case):
    xs, ys = _COLUMN_CASES[case]
    got = _Bounds()
    got.add(xs, ys)
    assert _box_bits(got) == _box_bits(_ref_box(zip(xs, ys)))


@pytest.mark.parametrize("calls", [
    # a zero of one sign sets a bound, a zero of the other sign ties with it
    # in a later call: the value seen first stays, on every side of the box
    [([-0.0, 1.0], [0.0, 2.0]), ([0.0, 3.0], [-0.0, 1.0])],
    [([-1.0, 0.0], [-2.0, -0.0]), ([-0.0, -2.0], [0.0, -1.0])],
    [([0.0, 1.0], [-0.0, 2.0]), ([_NAN, -0.0], [0.0, 0.0]), ([-0.0], [0.0])],
    [_COLUMN_CASES["sum-overflows"], _COLUMN_CASES["zero-tie-plus-first"],
     _COLUMN_CASES["nan-splits-a-run"], _COLUMN_CASES["no-finite-pair"]],
], ids=["low-ties", "high-ties", "ties-after-a-nan", "mixed"])
def test_bounds_accumulate_over_calls_like_one_loop(calls):
    # phase portraits add every trajectory, then the overlays, in order
    got, ref = _Bounds(), _RefBounds()
    for xs, ys in calls:
        got.add(xs, ys)
        for x, y in zip(xs, ys):
            ref.add(x, y)
        assert _box_bits(got) == _box_bits(ref)


@pytest.mark.parametrize("x", [0.0, -0.0, 0.5, -1.0, 1e120, -1e300])
def test_zero_width_box_keeps_a_margin_wherever_it_lies(x):
    # one point: each side falls back to max(1, |coordinate|) before padding,
    # which is the unit width of old within [-1, 1]
    b = _Bounds()
    b.add([x], [x])
    x_lo, x_hi, y_lo, y_hi = b.padded()
    width = max(1.0, abs(x))
    assert (x_lo, x_hi) == (y_lo, y_hi) == (x - 0.06 * width, x + 0.06 * width)
    assert x_lo < x < x_hi


@pytest.mark.parametrize("case", sorted(_COLUMN_CASES))
def test_polyline_points_match_the_per_point_mapping(case):
    xs, ys = _COLUMN_CASES[case]
    m = _Mapper((-2.0, 5.0, -4.0, 8.0))
    assert _polyline_points(m, xs, ys) == _ref_polyline_points(m, zip(xs, ys))


def test_points_that_round_to_minus_zero_are_written_as_zero():
    # px = 62 + (x + 1) * 321 and py = 494 - (y + 1) * 239 on this box
    m = _Mapper((-1.0, 1.0, -1.0, 1.0))
    xs = [-1.0 - 62.004 / 321.0, 0.0, -1.0 - 62.001 / 321.0]
    ys = [0.0, -1.0 + 494.003 / 239.0, -1.0 + 494.0049 / 239.0]
    assert ["%.2f" % m.px(x) for x in xs] == ["-0.00", "383.00", "-0.00"]
    assert ["%.2f" % m.py(y) for y in ys] == ["255.00", "-0.00", "-0.00"]
    assert _polyline_points(m, xs, ys) == ["0.00,255.00 383.00,0.00 0.00,0.00"]
    assert _ref_polyline_points(m, zip(xs, ys)) == ["0.00,255.00 383.00,0.00 0.00,0.00"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64)),
                max_size=40))
def test_column_writers_match_the_references_on_any_floats(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    got = _Bounds()
    got.add(xs, ys)
    ref = _ref_box(pairs)
    assert _box_bits(got) == _box_bits(ref)
    m = _Mapper((-3.0, 7.0, -1e3, 2.5))
    assert _polyline_points(m, xs, ys) == _ref_polyline_points(m, pairs)


def _series_with_nan_controls(n):
    # every 5th control, and the last, is the shared math.nan object
    ts = tuple(0.01 * i for i in range(n))
    us = tuple(math.nan if i % 5 == 0 or i == n - 1 else math.sin(0.01 * i)
               for i in range(n))
    return ts, us


@pytest.mark.parametrize("n", [4000, 4001, 9001, 9002, 12007])
def test_index_thinning_keeps_the_zipped_pairs(n):
    for column in (tuple, partial(array, "d")):
        ts, us = map(column, _series_with_nan_controls(n))
        thinned = _thin(ts), _thin(us)
        # a trajectory's array('d') columns stay arrays, not lists of floats
        assert {type(c) for c in thinned} == {type(ts)}
        kept = list(zip(*thinned))
        assert [_bits(*p) for p in kept] == [
            _bits(*p) for p in _ref_thin(list(zip(ts, us)))]
        assert kept[-1][0] == ts[-1]


@pytest.mark.parametrize("n", [60, 9001, 9002])
def test_controller_svg_matches_the_per_point_writer(tmp_path, n):
    ts, us = _series_with_nan_controls(n)
    traj = Trajectory(ts, (ts, ts), us)
    out = tmp_path / "u.svg"
    emit_timeseries_svg(traj, out)
    want = _ref_polyline_points(_Mapper(_ref_box(zip(ts, us)).padded()),
                                _ref_thin(list(zip(ts, us))))
    got = [el.get("points") for el in ET.parse(out).getroot().iter(f"{_NS}polyline")
           if el.get("class") == "series"]
    assert len(got) > 1
    assert got == want


def test_phase_svg_matches_the_per_point_writer(tmp_path):
    # two trajectories, the second with a nan state, and a reference cycle
    # that reaches past both
    a = _parabola_traj(9001)
    states = list(_points(_parabola_traj(300, -0.5, 0.5)))
    states[100] = PhasePoint(math.nan, 0.2)
    b = Trajectory(tuple(range(300)), zip(*states), tuple([0.0] * 300))
    ring = tuple((1.5 * math.cos(0.1 * i), 1.5 * math.sin(0.1 * i))
                 for i in range(64))
    out = tmp_path / "phase.svg"
    emit_phase_svg([a, b], out, cycle=tuple(zip(*ring)))
    ref = _ref_box((p[0], p[1]) for traj in (a, b) for p in _points(traj))
    for x, y in ring:
        ref.add(x, y)
    m = _Mapper(ref.padded())
    want = [run for traj in (a, b)
            for run in _ref_polyline_points(
                m, [(p[0], p[1]) for p in _ref_thin(_points(traj))])]
    got = [el.get("points") for el in ET.parse(out).getroot().iter(f"{_NS}polyline")
           if el.get("class") == "traj"]
    assert len(got) == 3
    assert got == want


def _bounded_child(code):
    """Run ``code`` in a child capped at 1 GB of address space and 60 s, so
    a loop that never ends fails the test instead of hanging it."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2)\n"
    path = [str(Path(svgplot.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    try:
        return subprocess.run([sys.executable, "-c", cap + code], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the child did not finish within 60 s")


def test_ticks_end_where_the_step_cannot_move_a_tick():
    # the floats near -4e16 lie 8 apart, so the tick step 2.0 is absorbed
    run = _bounded_child(
        "from canardctl.svgplot import _ticks\n"
        "print(_ticks(-4.00000000004e+16, -4.000000000039999e+16))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[-4.00000000004e+16]\n"


def test_controls_a_few_ulps_apart_still_plot(tmp_path):
    # k2 at alpha = 2e8 holds its control near -4e16, a few ulps wide
    cfg = tmp_path / "k2.json"
    cfg.write_text(json.dumps({"experiment": "k2",
                               "params": {"alpha": 2e8, "t_end": 2.0},
                               "initial_conditions": [[0.001, 0.0]]}))
    out = tmp_path / "out"
    run = _bounded_child("from canardctl.cli import main\n"
                         f"raise SystemExit(main(['run', {str(cfg)!r}, "
                         f"'--out', {str(out)!r}]))")
    assert run.returncode == 0, run.stderr
    assert sorted(f.name for f in out.iterdir()) == [
        "controller.svg", "metrics.json", "phase.svg", "trajectory.csv"]
