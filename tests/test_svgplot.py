"""Structural tests for the SVG emitters.

The files double as regression fixtures, so beyond well-formedness we pin
byte determinism and the presence/absence of each overlay element class.
"""

import math
import xml.etree.ElementTree as ET

import pytest

from canardctl.controllers import default_neighborhoods
from canardctl.core import PhasePoint
from canardctl.sim import Trajectory
from canardctl.svgplot import (
    CriticalManifold,
    NeighborhoodShading,
    ReferenceCycle,
    emit_phase_svg,
    emit_timeseries_svg,
)

_NS = "{http://www.w3.org/2000/svg}"


def _parabola_traj(n=60, lo=-1.0, hi=1.0):
    ts = [i / (n - 1) for i in range(n)]
    xs = [lo + (hi - lo) * t for t in ts]
    pts = [PhasePoint(x, x * x + 0.05 * math.sin(7 * x)) for x in xs]
    return Trajectory(tuple(ts), tuple(pts), tuple(0.1 * x for x in xs))


def _classes(path, tag):
    root = ET.parse(path).getroot()
    return [el.get("class") for el in root.iter(f"{_NS}{tag}")]


class TestPhasePortrait:
    def test_fold_overlay_single_dashed_parabola(self, tmp_path):
        out = tmp_path / "fold.svg"
        emit_phase_svg([_parabola_traj()], [CriticalManifold("fold")], out)
        root = ET.parse(out).getroot()
        assert root.tag == f"{_NS}svg"
        assert root.get("version") == "1.1"
        dashed = [el for el in root.iter(f"{_NS}polyline")
                  if el.get("class") == "overlay-critical-manifold"]
        assert len(dashed) == 1
        assert dashed[0].get("stroke-dasharray") == "6 4"

    def test_neighborhoods_shade_two_region_kinds(self, tmp_path):
        out = tmp_path / "vdp.svg"
        nbhd = default_neighborhoods(0.01, y_h=1.25)
        emit_phase_svg([_parabola_traj()],
                       [CriticalManifold("vdp"), NeighborhoodShading(nbhd)], out)
        cls = _classes(out, "polygon")
        assert "region-n1" in cls
        assert "region-n2" in cls

    def test_empty_overlays_trajectory_only(self, tmp_path):
        out = tmp_path / "bare.svg"
        emit_phase_svg([_parabola_traj()], [], out)
        polys = _classes(out, "polyline")
        assert polys == ["traj"]
        assert _classes(out, "polygon") == []

    def test_reference_cycle_overlay(self, tmp_path):
        out = tmp_path / "cycle.svg"
        ring = [(math.cos(a), math.sin(a))
                for a in (2 * math.pi * i / 64 for i in range(65))]
        emit_phase_svg([_parabola_traj()], [ReferenceCycle(tuple(ring))], out)
        assert "overlay-reference-cycle" in _classes(out, "polyline")

    def test_multiple_trajectories_get_distinct_colors(self, tmp_path):
        out = tmp_path / "multi.svg"
        emit_phase_svg([_parabola_traj(), _parabola_traj(40, -0.5, 0.5)], [], out)
        root = ET.parse(out).getroot()
        strokes = [el.get("stroke") for el in root.iter(f"{_NS}polyline")
                   if el.get("class") == "traj"]
        assert len(strokes) == 2 and strokes[0] != strokes[1]

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
        emit_timeseries_svg(Trajectory(ts, pts, us), out)
        runs = [el for el in ET.parse(out).getroot().iter(f"{_NS}polyline")
                if el.get("class") == "series"]
        assert len(runs) == 2


class TestDeterminism:
    def test_identical_bytes_across_calls(self, tmp_path):
        nbhd = default_neighborhoods(0.01, y_h=1.25)
        overlays = [CriticalManifold("vdp"), NeighborhoodShading(nbhd),
                    ReferenceCycle(((0.0, 0.0), (1.0, 1.0), (0.0, 0.0)))]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_phase_svg([_parabola_traj()], overlays, a)
        emit_phase_svg([_parabola_traj()], overlays, b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_timestamp_like_content(self, tmp_path):
        out = tmp_path / "c.svg"
        emit_phase_svg([_parabola_traj()], [CriticalManifold("fold")], out)
        text = out.read_text()
        assert "date" not in text.lower()
        assert text.endswith("</svg>\n")

    def test_point_thinning_caps_element_size(self, tmp_path):
        n = 20000
        ts = tuple(i * 1e-3 for i in range(n))
        pts = tuple(PhasePoint(math.cos(t), math.sin(t)) for t in ts)
        traj = Trajectory(ts, pts, tuple(0.0 for _ in ts))
        out = tmp_path / "big.svg"
        emit_phase_svg([traj], [], out)
        root = ET.parse(out).getroot()
        counts = [len(el.get("points").split()) for el in root.iter(f"{_NS}polyline")
                  if el.get("class") == "traj"]
        assert sum(counts) <= 4001
