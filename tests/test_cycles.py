"""Tests for the reference cycles drawn behind fold and chart runs."""

import struct
from array import array

import pytest

from canardctl.core import ScaledLevel
from canardctl.cycles import _cycle_curve, reference_cycle


def test_reference_cycle_traced_once_per_exact_key():
    first = reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1)
    assert first == _cycle_curve(0.25, 400.0, 0.01, -0.1)
    # the overlay is its two columns, at 8 bytes a value
    assert type(first.xs) is array and type(first.ys) is array
    assert len(first.xs) == len(first.ys) > 2
    # an equal level is the same key: the cached overlay itself comes back
    assert reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1) is first
    # the key holds the bits, so the sign of a zero center is kept
    bits = []
    for center in (0.0, -0.0):
        cycle = reference_cycle(ScaledLevel(0.0), 1.0, center)
        bits.append([struct.pack("<2d", *p) for p in zip(cycle.xs, cycle.ys)])
        traced = _cycle_curve(0.0, 0.0, 1.0, center)
        assert bits[-1] == [struct.pack("<2d", *p)
                            for p in zip(traced.xs, traced.ys)]
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
