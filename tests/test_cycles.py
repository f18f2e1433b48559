"""Tests for the reference cycles drawn behind fold and chart runs."""

import struct

from canardctl import cycles
from canardctl.core import ScaledLevel
from canardctl.cycles import _cycle_curve, reference_cycle
from canardctl.svgplot import ReferenceCycle


def test_reference_cycle_traced_once_per_exact_key():
    first = reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1)
    assert first == ReferenceCycle(_cycle_curve(0.25, 400.0, 0.01, -0.1))
    # an equal level is the same key: the curve is not traced again
    misses = cycles._packed_cycle.cache_info().misses
    assert reference_cycle(ScaledLevel(0.25, 400.0), 0.01, -0.1) == first
    assert cycles._packed_cycle.cache_info().misses == misses
    # the key holds the bits, so the sign of a zero center is kept
    bits = []
    for center in (0.0, -0.0):
        points = reference_cycle(ScaledLevel(0.0), 1.0, center).points
        bits.append([struct.pack("<2d", *p) for p in points])
        assert bits[-1] == [struct.pack("<2d", *p)
                            for p in _cycle_curve(0.0, 0.0, 1.0, center)]
    assert bits[0] != bits[1]
