"""Tests for the reference cycles drawn behind fold and chart runs."""

import math
import struct
from array import array

import pytest

from canardctl.core import ScaledLevel
from canardctl.cycles import _CYCLE_RUNGS, _cycle_curve, reference_cycle


def test_reference_cycle_traced_once_per_exact_key():
    first = reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1)
    assert first == _cycle_curve(0.25, 400.0, 0.01, -0.1)
    # the cycle is its two columns, at 8 bytes a value
    xs, ys = first
    assert type(xs) is array and type(ys) is array
    assert len(xs) == len(ys) > 2
    # an equal level is the same key: the cached tuple itself comes back
    assert reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1) is first
    # the key holds the bits, so the sign of a zero center is kept
    bits = []
    for center in (0.0, -0.0):
        cycle = reference_cycle(ScaledLevel(0.0), 1.0, center)
        bits.append([struct.pack("<2d", *p) for p in zip(*cycle)])
        traced = _cycle_curve(0.0, 0.0, 1.0, center)
        assert bits[-1] == [struct.pack("<2d", *p) for p in zip(*traced)]
    assert bits[0] != bits[1]


@pytest.mark.parametrize("level, eps, center", [
    (ScaledLevel(0.25, 400), 0.01, 0.0),
    (ScaledLevel(0, 0.0), 1.0, 0.0),
    (ScaledLevel(0.0), 1, 0.0),
    (ScaledLevel(0.0), 1.0, 0),
], ids=["E", "h0", "eps", "center"])
def test_an_int_shares_the_key_of_its_float(level, eps, center):
    cycle = reference_cycle(level, eps, center)
    floats = (float(level.h0), float(level.E), float(eps), float(center))
    assert cycle == _cycle_curve(*floats)
    assert reference_cycle(ScaledLevel(*floats[:2]), *floats[2:]) is cycle


@pytest.mark.parametrize("h0, E, eps, center", [
    (-0.25, 400.0, 0.01, 0.0),
    (-0.25, 0.0, 0.01, 0.0),
    (-3.0, 2.0, 1.0, 0.5),
    (-1e6, 0.0, 0.01, 0.0),
], ids=["fold-fast", "E0", "chart", "deep"])
def test_a_negative_level_closes_at_its_lowest_point(h0, E, eps, center):
    # below the maximal canard the curve reaches under y = -eps/2, where its
    # two arcs meet: xhat^2 = y + eps/2 - 2 eps h0 exp(2y/eps - E) is 0 there
    xs, ys = _cycle_curve(h0, E, eps, center)
    y_bot = min(ys)
    assert y_bot <= -0.5 * eps
    assert ys[0] == ys[-1] == y_bot
    sq = y_bot + 0.5 * eps - 2.0 * eps * h0 * math.exp(2.0 * y_bot / eps - E)
    assert abs(sq) < 1e-12 * eps
    assert abs(xs[0] - center) < 1e-5


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_a_negative_level_stops_as_wide_as_the_maximal_canard_at_the_cap(eps):
    # below the maximal canard the curve widens without bound as y rises:
    # every rung is kept up to where its half-width reaches the parabola's
    # at the cap, sqrt(2.5 + eps/2) < 1.59, not where exp(2y/eps - E)
    # overflows
    xs, ys = _cycle_curve(-0.25, 400.0, eps)
    assert len(xs) == len(ys) == 2 * (_CYCLE_RUNGS + 1) + 1
    assert max(map(abs, xs)) <= 1.59
    assert max(map(abs, xs)) == pytest.approx(math.sqrt(2.5 + 0.5 * eps))


@pytest.mark.parametrize("h0, E, eps, center", [
    (0.05, 0.0, 1.0, 0.0),
    (0.2, 3.0, 0.02, 0.0),
    (0.1, 0.0, 0.01, -0.1),
    (0.25, 400.0, 0.01, -0.1),
    (0.25, 60.0, 0.01, -0.1),
    (0.25, 400.0, 0.01, 0.0),
], ids=["chart", "shallow", "E0", "fold-fast", "fold-slow", "fold-fast-hot"])
def test_a_positive_level_keeps_every_rung_and_closes_at_both_ends(
        h0, E, eps, center):
    # a closed level meets its two arcs at its lowest and its highest point,
    # where xhat^2 = y + eps/2 - 2 eps h0 exp(2y/eps - E) is 0; the rung at
    # each end must lie on the curve, not just outside it
    xs, ys = _cycle_curve(h0, E, eps, center)
    rungs = _CYCLE_RUNGS + 1
    assert len(xs) == len(ys) == 2 * rungs + 1
    bottom, top = 0, rungs - 1
    assert ys[bottom] == min(ys) and ys[top] == max(ys)
    for i in (bottom, top, 2 * rungs - 1 - top, 2 * rungs - 1):
        assert abs(xs[i] - center) < 1e-6
    assert (xs[-1], ys[-1]) == (xs[0], ys[0])


@pytest.mark.parametrize("h0, E", [(0.25, 0.0), (0.25, 1e-13), (0.2499, 0.0)],
                         ids=["cap", "cap-tolerance", "near-cap"])
def test_a_level_at_the_cap_traces_a_closed_curve_at_the_fold(h0, E):
    # at h = 1/4 the cycle has shrunk to the point (0, 0), where sq < 0
    # almost everywhere: the end rungs must not walk in search of sq >= 0
    xs, ys = _cycle_curve(h0, E, 0.01)
    assert (xs[-1], ys[-1]) == (xs[0], ys[0])
    assert max(map(abs, xs)) < 0.01 and max(map(abs, ys)) < 0.001
    if h0 < 0.25:
        # a cycle under eps/4 high still keeps every rung
        assert len(xs) == 2 * (_CYCLE_RUNGS + 1) + 1
