"""Reference cycles: the level curves {H = h} drawn behind fold and chart runs.

The fold runners draw the closed level curve their law stabilizes, and the
central-chart runners the chart's level curve; every config of a batch
draws the same few curves again, so each exact curve is traced once per
process and kept as its x and y float columns, at 8 bytes a value.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Callable, Tuple

__all__ = ["reference_cycle"]


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid == lo or mid == hi) and mid != 0.0:
            # the bracket can no longer move, so every halving left would
            # end on this mid; a zero mid runs on, since halving between
            # -0.0 and 0.0 can still flip the sign of the zero it returns
            return mid
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_Y_TOP_CAP = 2.5  # highest y of a traced reference cycle
_CYCLE_RUNGS = 240  # y levels a reference cycle is traced at


def _cycle_curve(h0: float, E: float, eps: float,
                 alpha: float = 0.0) -> Tuple[array, array]:
    """The x and y columns tracing {H = h}:
    xhat^2 = y + eps/2 - 2 eps h0 exp(2y/eps - E), up its right arc, down
    its left arc and back to its first point.

    The same formula serves the central chart with eps = 1.  For the
    maximal canard (h = 0) the curve is the unbounded parabola, truncated
    at _Y_TOP_CAP.
    """

    def sq(y: float) -> float:
        base = y + 0.5 * eps
        if h0 == 0.0:
            return base
        e = 2.0 * y / eps - E
        if e > 700.0:
            # the term left out, -2 eps h0 exp(e), has the sign of -h0
            return math.inf if h0 < 0.0 else -math.inf
        return base - 2.0 * eps * h0 * math.exp(e)

    def inward(y: float, to: float) -> float:
        # a bisection may return the float just outside the curve, where
        # sq < 0 and the rung loop below would skip an end rung: step
        # towards ``to``, a point inside, to the first float on the curve
        while sq(y) < 0.0:
            y = math.nextafter(y, to)
        return y

    if h0 < 0.0:
        # sq rises through 0 below -eps/2: step down until it is not positive
        hi = lo = -0.5 * eps
        while sq(lo) > 0.0:
            hi, lo = lo, 2.0 * lo
        y_bot = inward(_bisect(sq, lo, hi), hi)
    elif sq(0.0) > 0.0:
        y_bot = inward(_bisect(sq, -0.5 * eps, 0.0), 0.0)
    else:  # h = 1/4: the cycle has shrunk to the point (0, 0)
        y_bot = -0.5 * eps
    if h0 > 0.0:
        hi = y_bot + eps
        while sq(hi) > 0.0 and hi < _Y_TOP_CAP:
            hi = min(2.0 * hi + eps, _Y_TOP_CAP + 1.0)
        lo = y_bot + 0.25 * eps
        # the widest rung, where sq(y_peak) = y_peak
        y_peak = 0.5 * eps * (E - math.log(4.0 * h0))
        if sq(hi) > 0.0:
            y_top = _Y_TOP_CAP
        elif sq(lo) > 0.0:
            y_top = inward(_bisect(sq, lo, hi), lo)
        elif sq(y_peak) > 0.0:  # a cycle under eps/4 high tops out below lo
            y_top = inward(_bisect(sq, y_peak, lo), y_peak)
        else:  # h = 1/4: no point inside to step towards
            y_top = _bisect(sq, lo, hi)
    elif h0 < 0.0:
        # the curve widens without bound: stop where it is as wide as the
        # maximal canard at the cap
        wide = _Y_TOP_CAP + 0.5 * eps
        y_top = _bisect(lambda y: sq(y) - wide, y_bot, _Y_TOP_CAP)
    else:
        y_top = _Y_TOP_CAP
    ys, rs = [], []
    for i in range(_CYCLE_RUNGS + 1):
        # the top rung is y_top itself, which a rounded span can miss
        y = y_bot + (y_top - y_bot) * i / _CYCLE_RUNGS \
            if i < _CYCLE_RUNGS else y_top
        s = sq(y)
        if s < 0.0:
            continue
        ys.append(y)
        rs.append(math.sqrt(s))
    right = [alpha + r for r in rs]
    return (array("d", right + [alpha - r for r in rs[::-1]] + right[:1]),
            array("d", ys + ys[::-1] + ys[:1]))


@functools.lru_cache(maxsize=32)
def _cached_cycle(key: Tuple[str, str, str, str]) -> Tuple[array, array]:
    return _cycle_curve(*map(float.fromhex, key))


def reference_cycle(level, eps: float,
                    center: float = 0.0) -> Tuple[array, array]:
    """The (xs, ys) columns of the level curve {H = h} of the scaled level
    ``level`` (its ``h0`` and ``E``), centred on x = ``center``.

    Each exact (h0, E, eps, center) is traced once per process, and a call
    with the same key returns the same tuple, which no caller changes;
    the cache key holds the bits of each value as a float, so -0.0 and 0.0
    stay apart and an int shares the key of its float.
    """
    return _cached_cycle(tuple(
        float.hex(float(v)) for v in (level.h0, level.E, eps, center)))
