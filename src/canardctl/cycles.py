"""Reference cycles: the level curves {H = h} drawn behind fold and chart runs.

The fold runners draw the closed level curve their law stabilizes, and the
central-chart runners the chart's level curve; every config of a batch
traces the same few curves again, so each exact curve is traced once per
process and kept packed.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Callable, Tuple

from .svgplot import ReferenceCycle

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
                 alpha: float = 0.0) -> Tuple[Tuple[float, float], ...]:
    """Points tracing {H = h}: xhat^2 = y + eps/2 - 2 eps h0 exp(2y/eps - E).

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
            return -math.inf
        return base - 2.0 * eps * h0 * math.exp(e)

    y_bot = _bisect(sq, -0.5 * eps, 0.0) if sq(0.0) > 0.0 else -0.5 * eps
    if h0 > 0.0:
        hi = y_bot + eps
        while sq(hi) > 0.0 and hi < _Y_TOP_CAP:
            hi = min(2.0 * hi + eps, _Y_TOP_CAP + 1.0)
        y_top = _bisect(sq, y_bot + 0.25 * eps, hi) if sq(hi) <= 0.0 else _Y_TOP_CAP
    else:
        y_top = _Y_TOP_CAP
    right, left = [], []
    for i in range(_CYCLE_RUNGS + 1):
        y = y_bot + (y_top - y_bot) * i / _CYCLE_RUNGS
        s = sq(y)
        if s < 0.0:
            continue
        r = math.sqrt(s)
        right.append((alpha + r, y))
        left.append((alpha - r, y))
    return tuple(right + left[::-1] + right[:1])


@functools.lru_cache(maxsize=32)
def _packed_cycle(key: Tuple[str, str, str, str]) -> bytes:
    # 16 bytes a point: a run keeps what its batch has traced, and a
    # ReferenceCycle costs about 100 bytes a point
    return array("d", [v for p in _cycle_curve(*map(float.fromhex, key))
                       for v in p]).tobytes()


def reference_cycle(level, eps: float, center: float = 0.0) -> ReferenceCycle:
    """The overlay of the level curve {H = h} of the scaled level ``level``
    (its ``h0`` and ``E``), centred on x = ``center``.

    Each exact (h0, E, eps, center) is traced once per process; the cache
    key holds the floats' bits, so -0.0 and 0.0 stay apart.
    """
    flat = array("d", _packed_cycle(tuple(
        float.hex(v) for v in (level.h0, level.E, eps, center))))
    return ReferenceCycle(tuple(zip(flat[0::2], flat[1::2])))
